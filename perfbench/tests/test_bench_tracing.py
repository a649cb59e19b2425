import rectmvt.harness as harness
import rectmvt.locator as locator
from rectmvt import Rectangle, derive_seed, family_from_name, locate, locate_line, parse
from rectmvt import pompeiu1d_residual, rect_mvt_residual

from tracing import Tracer


def test_grid_and_scalar_calls_are_counted_apart():
    tracer = Tracer()
    field = tracer.wrap_field(rect_mvt_residual(parse("x^2*y"), Rectangle(0, 1, 0, 1)))
    report = locate(field)
    m = tracer.layer_metrics()
    assert report.diagnostics.level == 0
    assert m["theorems.residual_grid_calls"][0] == 1
    assert m["theorems.residual_grid_samples"][0] == 33 * 33 == 1089
    # the cell center x = 0.5 is an exact zero of 1 - 2x: one scalar confirmation
    assert m["theorems.residual_scalar_calls"][0] == 1


def test_line_fields_count_the_samples_they_evaluate():
    tracer = Tracer()
    field = tracer.wrap_field(pompeiu1d_residual(parse("x^3 - x"), 1.0, 2.0))
    locate_line(field)
    m = tracer.layer_metrics()
    assert m["theorems.residual_grid_samples"][0] == 33 * m["theorems.residual_grid_calls"][0]


def test_install_traces_a_sweep_case_and_restore_undoes_it():
    with Tracer() as tracer:
        tracer.case = 7
        harness.run_sweep("pompeiu2d", family_from_name("poly4"), 1, derive_seed(1, 0))
    assert harness.locate is locator.locate
    m = tracer.layer_metrics()
    assert m["locator.locate_calls"][0] == 1
    assert m["theorems.build_calls"][0] == 1
    assert m["theorems.residual_grid_samples"][0] % 1089 == 0
    per_case = m["locator.scalar_evals_per_case_max"][0]
    assert per_case == m["locator.scalar_evals_per_case_p50"][0]
    assert per_case == m["theorems.residual_scalar_calls"][0] > 0
    assert {span[4] for span in tracer.spans} == {7}
    # self time never exceeds the span's own duration
    assert 0 < m["locator.self_s"][0] < m["locator.locate_s"][0]


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    tracer.call(outer, lambda: tracer.call(inner, sum, range(100000)))
    (_, s0, e0, p0, _), (_, s1, e1, p1, _) = tracer.spans
    assert p0 == -1 and p1 == 0
    assert s0 <= s1 <= e1 <= e0
