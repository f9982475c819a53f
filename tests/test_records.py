"""Every public record is a read-only typing.NamedTuple."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import locq
from locq import genfunc, genus, localization, pfaffian, qhyper, series, spectral, verify
from locq.spectral import Tau


def _samples():
    """One instance of each public record, by class name."""
    tau = Tau(1j)
    params = spectral.SpectralParams(1.0, 0j, 1, "minus", tau)
    space = localization.SphereProductSpace.of((1.0, 1.0))
    betti = genfunc.BettiData.of(1, 0, 1)
    spec = qhyper.BilateralSeriesSpec.make([], [Fraction(1, 3)], Fraction(1, 2), Fraction(1, 4))
    level = genus.LevelData(2, 1, 0, Tau(0.3 + 1.1j))
    records = [
        series.FormalSeries(1, (1, 0)),
        series.IntegerProductSpec(1, 0, 1, "minus"),
        genfunc.macdonald_series(betti, 1),
        tau,
        params,
        spectral.evaluate_product(params),
        spectral.branch_shift_check(params),
        betti,
        level,
        genus.XSeries.from_coeffs([1.0, 0.0, 0.0]),
        genus.genus_cpm(level, 1),
        genus.lattice_periodicity_scan(level),
        spec,
        qhyper.bilateral_psi(spec),
        qhyper.saalschutz_check(Fraction(2, 3), Fraction(2, 5), Fraction(-2, 3), 2,
                                Fraction(3, 10)),
        pfaffian.canonicalize(pfaffian.SkewMatrix([[0.0, -2.0], [2.0, 0.0]])),
        space.factors[0],
        space,
        localization.dh_verify(space, 0.5),
        verify.Row("identity", 1, 0),
        verify.SuiteResult("suite", (verify.Row("identity", 1, 0),)),
    ]
    return {type(r).__name__: r for r in records}


SAMPLES = _samples()


def _public_records():
    """Names of the public tuple classes with fields defined in locq's modules."""
    found = set()
    for info in pkgutil.iter_modules(locq.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"locq.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, tuple)
                    and hasattr(value, "_fields") and value.__module__ == module.__name__
                    and not name.startswith("_")):
                found.add(name)
    return found


def test_every_public_record_has_a_sample():
    assert set(SAMPLES) == _public_records()


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_are_read_only(name):
    record = SAMPLES[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # no instance dict either, so that no attribute can be added
    with pytest.raises(AttributeError):
        record.extra = None
