import numpy as np
import pytest

from bubblescreen import (BubbleCluster, ExperimentConfig, RawMaterials,
                          ShapeDescriptor, derive_params,
                          geometric_constant, validate_conditions)
from bubblescreen.errors import GeometryError, ParameterError
from bubblescreen.experiments import build_scene, run_stage
from bubblescreen.materials import PhysicalParams

from oracles import (brute_inverse_distance_sum, csv_rows_text, planar_grid,
                     sphere_pair_quadrature)

EIGHT_PI_THIRDS = 8.0 * np.pi / 3.0


class TestGeometricConstant:
    def test_unit_sphere_value(self):
        # for the unit reference ball A = 2*vol(B) = 8 pi / 3
        shape = ShapeDescriptor()
        assert geometric_constant(shape) == pytest.approx(EIGHT_PI_THIRDS, rel=1e-15)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_radius_scaling_is_quadratic(self, scale):
        # the defining integrand (x-y).nu_x/|x-y| is scale invariant, so the
        # constant scales with the surface measure ratio a^4/a^2 = a^2
        a1 = geometric_constant(ShapeDescriptor())
        a2 = geometric_constant(ShapeDescriptor(radius=scale))
        assert a2 / a1 == pytest.approx(scale**2, rel=1e-14)

    def test_ball_identity_two_volumes(self):
        # the closed form against the independent double surface quadrature
        shape = ShapeDescriptor()
        a = geometric_constant(shape)
        assert abs(sphere_pair_quadrature(1.0, 48) - a) < 1e-4 * a
        assert a == 2.0 * shape.volume

    def test_closed_form_off_unit_radius(self):
        # A = 8 pi a^2 / 3 is 2*vol(B) only at a = 1
        a = geometric_constant(ShapeDescriptor(radius=2.0))
        assert abs(sphere_pair_quadrature(2.0, 48) - a) < 1e-4 * a

    def test_oracle_converges_to_closed_form(self):
        a = geometric_constant(ShapeDescriptor())
        err24 = abs(sphere_pair_quadrature(1.0, 24) - a)
        err48 = abs(sphere_pair_quadrature(1.0, 48) - a)
        assert err48 < 0.5 * err24


class TestDeriveParams:
    def test_unit_normalization(self):
        p = derive_params(RawMaterials(rho_c=1.0, kappa_c=1.0, eps=0.01))
        assert p.c0 == 1.0

    def test_minnaert_frequency_unit_ball(self):
        p = derive_params(RawMaterials(eps=0.01))
        assert abs(p.omega_m_sq - 4.0 * np.pi / 3.0) < 1e-4 * p.omega_m_sq

    def test_omega_sq_equals_cbar_for_ball(self):
        p = derive_params(RawMaterials(eps=0.01))
        assert p.c_bar == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)
        assert abs(p.omega_m_sq - p.c_bar) < 1e-4 * p.c_bar

    def test_exact_derivation_identities(self):
        raw = RawMaterials(rho_c=1.7, kappa_c=2.2, rho_b_bar=0.8,
                           kappa_b_bar=1.9, eps=0.02)
        p = derive_params(raw)
        a_db = geometric_constant(ShapeDescriptor())
        assert p.omega_m_sq == raw.rho_c * a_db / (2.0 * raw.kappa_b_bar)
        assert p.c_eps == p.c_bar * raw.eps

    def test_monotone_in_kappa_linear_in_rho(self):
        kappas = [0.5, 1.0, 2.0, 4.0]
        vals = [derive_params(RawMaterials(kappa_b_bar=k, eps=0.01)).omega_m_sq
                for k in kappas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        rhos = [0.5, 1.0, 3.0]
        base = derive_params(RawMaterials(rho_c=1.0, eps=0.01)).omega_m_sq
        for r in rhos:
            v = derive_params(RawMaterials(rho_c=r, eps=0.01)).omega_m_sq
            assert v == pytest.approx(r * base, rel=1e-12)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ParameterError):
            RawMaterials(rho_c=0.0)
        with pytest.raises(ParameterError):
            RawMaterials(kappa_b_bar=-1.0)

    def test_large_eps_warns(self):
        with pytest.warns(UserWarning):
            RawMaterials(eps=1.5)

    def test_scaled_copies_change_only_their_quantities(self):
        p = derive_params(RawMaterials(rho_c=1.7, kappa_b_bar=1.9, eps=0.02))
        assert p.with_scaled_resonance(3.0) == PhysicalParams(
            c0=p.c0, omega_m_sq=p.omega_m_sq * 9.0,
            c_bar=p.c_bar, c_eps=p.c_eps, vol_b=p.vol_b, raw=p.raw)
        assert p.with_scaled_coupling(0.5) == PhysicalParams(
            c0=p.c0, omega_m_sq=p.omega_m_sq,
            c_bar=p.c_bar * 0.5, c_eps=p.c_eps * 0.5, vol_b=p.vol_b, raw=p.raw)
        for scale in (p.with_scaled_resonance, p.with_scaled_coupling):
            with pytest.raises(ParameterError):
                scale(0.0)


def _manual_cluster(centers, counts=None, eps=1.0 / 64.0):
    centers = np.asarray(centers, dtype=float)
    counts = np.ones(len(centers), dtype=int) if counts is None else np.asarray(counts)
    return BubbleCluster(centers=centers, patch_ids=np.arange(len(centers)),
                         counts=counts, eps=eps)


class TestValidateConditions:
    def test_single_bubble_trivial(self, params):
        rep = validate_conditions(params, _manual_cluster([[0.0, 0.0, 0.0]]))
        assert rep.cond_resonance_lhs == 0.0
        assert rep.pass_resonance

    def test_two_bubbles_one_term(self, params):
        d = 0.2
        rep = validate_conditions(params, _manual_cluster([[0, 0, 0], [d, 0, 0]]))
        assert rep.cond_resonance_lhs == pytest.approx(
            params.c_eps / (4.0 * np.pi * d), rel=1e-14)

    def test_grid_against_direct_summation(self, params):
        pts = planar_grid(16, 0.125)
        rep = validate_conditions(params, _manual_cluster(pts))
        best = max(brute_inverse_distance_sum(pts, 1.0, a) for a in range(len(pts)))
        expected = params.c_eps / (4.0 * np.pi) * best
        assert rep.cond_resonance_lhs == pytest.approx(expected, rel=1e-11)
        assert rep.k_max == 1.0
        assert rep.pass_resonance == (np.sqrt(rep.k_max) * rep.cond_resonance_lhs
                                      < rep.omega_m_sq)

    def test_scale_consistency(self, params):
        pts = planar_grid(6, 0.1)
        r1 = validate_conditions(params, _manual_cluster(pts))
        r2 = validate_conditions(params, _manual_cluster(2.0 * pts))
        assert r2.cond_resonance_lhs == pytest.approx(
            0.5 * r1.cond_resonance_lhs, rel=1e-12)

    def test_inversion_condition_value(self, params):
        cluster = _manual_cluster([[0, 0, 0], [0.125, 0, 0]])
        rep = validate_conditions(params, cluster)
        raw = params.raw
        expected = (raw.rho_c / (4 * np.pi)) * params.vol_b * \
            (raw.eps / 0.125) ** 6 / raw.lambda1_mag**2
        assert rep.cond_inversion_lhs == pytest.approx(expected, rel=1e-12)
        assert rep.pass_inversion == (expected < 1.0)

    def test_coincident_centers_rejected(self, params):
        with pytest.raises(GeometryError):
            validate_conditions(params, _manual_cluster([[0, 0, 0], [0, 0, 0]]))

    def test_report_text_one_field_per_line(self, params):
        rep = validate_conditions(params, _manual_cluster([[0, 0, 0], [0.2, 0, 0]]))
        assert rep.to_text() == (
            f"cond_inversion_lhs={rep.cond_inversion_lhs!r}\n"
            f"cond_resonance_lhs={rep.cond_resonance_lhs!r}\n"
            f"omega_m_sq={rep.omega_m_sq!r}\nk_max={rep.k_max!r}\n"
            f"pass_inversion={rep.pass_inversion}\npass_resonance={rep.pass_resonance}\n")

    def test_report_serialization(self, params, tmp_path):
        rep = validate_conditions(params, _manual_cluster([[0, 0, 0], [0.2, 0, 0]]))
        text = rep.to_text()
        assert "cond_resonance_lhs=" in text and text.endswith("\n")
        # the validate stage's CSVs, byte for byte (LF line ends), on a
        # cluster of one or two bubbles per patch
        config = ExperimentConfig.from_dict({
            "run": {"T": 2.5, "n_out": 51, "eps": 1.0 / 256.0},
            "k": {"name": "linear_axis", "scale": 1.0, "offset": 0.6, "axis": 0}})
        run_stage("validate", config, tmp_path)
        scene = build_scene(config)
        rep = validate_conditions(scene.params, scene.cluster)
        expected = csv_rows_text(
            ["cond_inversion_lhs", "cond_resonance_lhs", "omega_m_sq", "k_max",
             "pass_inversion", "pass_resonance"],
            [(rep.cond_inversion_lhs, rep.cond_resonance_lhs, rep.omega_m_sq,
              rep.k_max, rep.pass_inversion, rep.pass_resonance)])
        assert (tmp_path / "validation_report.csv").read_bytes() == expected.encode()
        cl = scene.cluster
        assert set(cl.counts) == {1, 2}
        expected = csv_rows_text(
            ["patch_id", "bubble_id", "x", "y", "z", "count"],
            [(pid, b, *c, cl.counts[pid])
             for b, (pid, c) in enumerate(zip(cl.patch_ids, cl.centers))])
        assert (tmp_path / "cluster.csv").read_bytes() == expected.encode()
