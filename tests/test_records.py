"""Records are named tuples: validated constructors keep their errors,
copies are checked again, and importing the CLI loads no dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nhspec import cli, linalg, opensys, scattering, sweep, twolevel

AC_KW = dict(e1_0=-1.0, e1_slope=1.0, e2_0=1.0, e2_slope=-1.0, gamma1_0=0.1,
             gamma2_0=0.2, omega=0.3)


@pytest.mark.parametrize("build,message", [
    (lambda: linalg.ComplexMatrix(np.ones((2, 3))),
     "entries must be a square matrix with n >= 1"),
    (lambda: linalg.ComplexMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]])),
     "entries must be finite"),
    (lambda: linalg.ComplexMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]),
                                  linalg.COMPLEX_SYMMETRIC),
     "matrix is not complex symmetric"),
    (lambda: linalg.ComplexMatrix(np.array([[1.0, 1j], [1j, 1.0]]),
                                  linalg.HERMITIAN),
     "matrix is not Hermitian"),
    (lambda: sweep.SweepSpec(twolevel.TwoLevelModel(1.0, -1.0, 0.5j),
                             "omega_im", 0.0, 1.0, 1),
     "steps must be >= 2"),
    (lambda: sweep.EncircleSpec(center=1j, radius=0.0),
     "radius must be positive"),
    (lambda: twolevel.PTTwoLevelModel(0.0, -0.1, 1.0),
     "gamma must be non-negative"),
    (lambda: twolevel.AvoidedCrossingModel(**dict(AC_KW, e2_slope=1.0)),
     "level energies must be non-parallel in a"),
    (lambda: opensys.OpenSystemModel(
        e_b=[0.0, 1.0], coupling=opensys.ConstantCoupling([[0.1], [0.2]]),
        window=(-1.0, 1.0), grid_size=200),
     "grid_size must be odd and >= 3"),
    (lambda: scattering.SMatrixModel(poles=[0.5 + 0.1j], couplings=[[0.3]]),
     "resonance poles must lie in Im z <= 0"),
])
def test_validated_constructors_keep_their_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_path_copy_is_checked_again():
    # a parameter path builds its copy with the constructor, not _replace
    m = twolevel.AvoidedCrossingModel(**AC_KW)
    with pytest.raises(ValueError, match="non-parallel"):
        sweep._set_path(m, "e1_slope", m.e2_slope)
    with pytest.raises(ValueError, match="gamma must be non-negative"):
        sweep._set_path(twolevel.PTTwoLevelModel(0.0, 0.1, 1.0), "gamma", -1.0)


def test_constructors_convert_their_inputs():
    m = linalg.ComplexMatrix([[1, 2], [2, 1]], linalg.COMPLEX_SYMMETRIC)
    assert m.entries.dtype == complex and m.n == 2
    c = opensys.SemicircleCoupling([0.1, 0.2])
    assert c.amplitudes.shape == (1, 2) and c.n_channels == 2
    s = scattering.SMatrixModel([-1j], [0.5], energy_grid=[0, 1])
    assert s.couplings.dtype == complex and s.energy_grid.dtype == float
    spec = sweep.EncircleSpec(1j, 0.5)
    assert (spec.steps_per_cycle, spec.cycles) == (256, 4)


@pytest.mark.parametrize("record,field", [
    (twolevel.TwoLevelModel(1.0, -1.0, 0.5j), "omega"),
    (twolevel.PTTwoLevelModel(0.0, 0.1, 1.0), "gamma"),
    (twolevel.AvoidedCrossingModel(**AC_KW), "omega"),
    (sweep.SweepSpec(twolevel.TwoLevelModel(1.0, -1.0, 0.5j), "omega_im",
                     0.0, 1.0, 3), "steps"),
    (sweep.EncircleSpec(1j, 0.5), "radius"),
    (opensys.ConstantCoupling([[0.1]]), "amplitudes"),
    (opensys.OpenSystemModel([0.0], opensys.ConstantCoupling([[0.1]]),
                             (-1.0, 1.0)), "grid_size"),
    (scattering.SMatrixModel([-1j], [0.5]), "energy_grid"),
    (linalg.ComplexMatrix(np.eye(2)), "entries"),
])
def test_models_and_specs_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_cli_import_leaves_dataclasses_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, nhspec.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == ["False"]
