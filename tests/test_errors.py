"""The package's exceptions survive pickling, as a process pool needs."""

import pickle

from diracdg import errors

EXAMPLES = [
    errors.DiracDGError("base"),
    errors.DomainError("rho**kappa of a negative rho"),
    errors.ConfigError("unknown or unused config keys: run.rk"),
    errors.BlowupError(5.04),
    errors.BlowupError(5.04, "max |coefficient| = 1.000e+12"),
    errors.NoConvergence(3, 1.0),
    errors.NoConvergence(40, 2.5e-9, "the solve collapsed onto the trivial branch"),
    errors.InsufficientLevels("one level"),
    errors.Unsupported("degree 4"),
]


def _subclasses(cls):
    return {cls}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


def test_examples_cover_every_error_type():
    assert {type(e) for e in EXAMPLES} == _subclasses(errors.DiracDGError)


def test_every_error_round_trips_through_pickle():
    for exc in EXAMPLES:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
        assert back.args == exc.args
