"""Every public function that takes a thermal variance gives the same answer for
an integer or float32 ``mu`` as for the equal Python float."""

import dataclasses
import hashlib

import numpy as np
import pytest

import gaussdisc as gd

CONFIG = gd.FockConfig(40, 8)
POVM = gd.GaussianPovm(1.0, 0.0, 2.0)

CALLS = {
    "entropy_h": lambda mu: gd.entropy_h(mu),
    "delta_c": lambda mu: gd.delta_c(mu),
    "delta_d": lambda mu: gd.delta_d(mu),
    "correlation_budget": lambda mu: gd.correlation_budget(mu),
    "discrimination_report": lambda mu: gd.discrimination_report(mu),
    "discrimination_reports": lambda mu: gd.discrimination_reports([mu]),
    "exponents": lambda mu: gd.exponents(mu),
    "gain_curves": lambda mu: gd.gain_curves([mu]),
    "multicopy_p_upper": lambda mu: gd.multicopy_p_upper(mu, 3),
    "qcb_global": lambda mu: gd.qcb_global(mu),
    "bhattacharyya_global": lambda mu: gd.bhattacharyya_global(mu),
    "s_overlap_global": lambda mu: gd.s_overlap_global(mu, 0.3),
    "g_weight": lambda mu: gd.g_weight(0.3, mu),
    "lambda_weight": lambda mu: gd.lambda_weight(0.3, mu),
    "p_upper_local": lambda mu: gd.p_upper_local(mu),
    "p_lower_local": lambda mu: gd.p_lower_local(mu),
    "heterodyne_epsilon": lambda mu: gd.heterodyne_epsilon(mu),
    "s_overlap_heterodyne": lambda mu: gd.s_overlap_heterodyne(mu, 0.3),
    "s_overlap_local": lambda mu: gd.s_overlap_local(mu, 0.3, POVM),
    "condition_on_povm": lambda mu: gd.condition_on_povm(mu, 2.0, POVM),
    "fidelity_heterodyne": lambda mu: gd.fidelity_heterodyne(mu, (0.5, -0.25)),
    "averaged_fidelity_bound": lambda mu: gd.averaged_fidelity_bound(mu, 2.0),
    "verify_heterodyne_optimality": lambda mu: gd.verify_heterodyne_optimality(mu, 2.0, 0.3),
    "verify_fidelity_optimality": lambda mu: gd.verify_fidelity_optimality(mu),
    "make_state_zero": lambda mu: gd.make_state_zero(mu),
    "make_state_one": lambda mu: gd.make_state_one(mu),
    "make_symmetric_state": lambda mu: gd.make_symmetric_state(mu, 2.0),
    "williamson_symmetric": lambda mu: gd.williamson_symmetric(gd.make_state_one(mu)),
    "build_thermal_product": lambda mu: gd.build_thermal_product(mu, CONFIG),
    "build_correlated": lambda mu: gd.build_correlated(mu, CONFIG),
    "s_overlap_curve": lambda mu: gd.s_overlap_curve(mu, [0.3], CONFIG),
}


def plain(value):
    """``value`` as nested plain data: each float as its type and hex digits,
    each array as its dtype, shape and a digest of its bytes."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, plain(vars(value))
    if isinstance(value, dict):
        return {plain(key): plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return str(value.dtype), value.shape, hashlib.sha256(value.tobytes()).hexdigest()
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    return type(value).__name__, repr(value)


@pytest.mark.parametrize("mu", [5, np.int64(5), np.float32(5)], ids=repr)
@pytest.mark.parametrize("name", CALLS)
def test_mu_type_does_not_change_the_result(name, mu):
    call = CALLS[name]
    assert plain(call(mu)) == plain(call(5.0))
