"""Exception types shared across the package, and the config object check."""

import functools
import inspect
import numbers
import typing


class BesovLabError(Exception):
    """Base class for all package errors."""


class InputError(BesovLabError):
    """A parameter is outside its documented domain."""


class CapabilityError(BesovLabError):
    """The request is valid but not supported by the implementation."""


class DivergenceError(BesovLabError):
    """An integral was detected to diverge (overflow guard tripped or
    analytically infinite for the given field/exponent combination)."""


class ResolutionError(BesovLabError):
    """A grid operation was requested below the resolvable scale."""


class FitError(BesovLabError):
    """An extrapolation fit is degenerate (rank loss or too few rows)."""


class SweepError(BesovLabError):
    """Every row of an epsilon sweep failed."""


def require(cond: bool, path: str, message: str):
    """An InputError "path: message" unless cond holds."""
    if not cond:
        raise InputError(f"{path}: {message}")


def typed(value, path: str, hint=float):
    """value as its annotation hint asks, else an InputError naming path: for
    int or float a JSON number of that type, an integral one for int; for
    list[X] a list of what X asks, as given; for any other hint, value."""
    if hint in (int, float):
        require(isinstance(value, numbers.Real) and not isinstance(value, bool)
                and (hint is float or float(value).is_integer()),
                path, "must be an integer" if hint is int else "must be a number")
        return hint(value)
    if typing.get_origin(hint) is list:
        require(isinstance(value, (list, tuple)), path, "must be a list")
        for i, v in enumerate(value):
            typed(v, f"{path}[{i}]", typing.get_args(hint)[0])
    return value


@functools.cache
def _parameters(build) -> dict:
    """The parameters of build, a module-level builder, annotations evaluated."""
    return dict(inspect.signature(build, eval_str=True).parameters)


def built(path: str, build, section, /, **given):
    """build(**given, **section) for the config object section at path:
    its keys are the keyword parameters build has and given does not fill,
    each of the type its annotation asks (see typed).  Every error is an
    InputError naming path, or path.key when it knows the key."""
    require(isinstance(section, dict), path, "must be an object")
    params = {k: p for k, p in _parameters(build).items() if k not in given}
    values = dict(given)
    for key, value in section.items():
        require(key in params, f"{path}.{key}",
                f"not a parameter (takes {', '.join(params) or 'none'})")
        values[key] = typed(value, f"{path}.{key}", params[key].annotation)
    missing = next((k for k, p in params.items() if k not in values and p.default is p.empty),
                   None)
    require(missing is None, path, f"missing key {missing!r}")
    try:
        return build(**values)
    except InputError as exc:    # its message leads with the argument at fault
        raise InputError(f"{path}.{exc}") from None
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise InputError(f"{path}: {exc}") from None


def built_kind(path: str, builders: dict, key: str, noun: str, section, /, **given):
    """built(path, builders[section[key]], the rest of section, **given),
    noun naming section[key] in an error."""
    require(isinstance(section, dict), path, "must be an object")
    rest = dict(section)
    kind = rest.pop(key, None)
    require(isinstance(kind, str) and kind in builders, f"{path}.{key}",
            f"unknown {noun} {kind!r}")
    return built(path, builders[kind], rest, **given)
