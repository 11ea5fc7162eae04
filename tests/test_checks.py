import gc
import tracemalloc

import pytest

import npk.checks as checks
from npk.checks import IDENTITIES, SUITES, check_identity, run_cohomology_model, run_suite
from npk import sampling as sp
from npk.points import Chart, NearPoint, NearPoints
from npk.weil import build_algebra, parse_presentation

# Report order is part of the byte-identical --json contract.
ALL_IDENTITIES = (
    "jacobi",
    "antisymmetry",
    "a-bilinearity",
    "prop11-tilde-bracket",
    "prop11-tilde-scale",
    "prop12",
    "prop17-bracket",
    "prop17-scale",
    "prop19-dstar-bracket",
    "prop19-dstar-scale",
    "prop19-dstar-theta",
    "lift-add",
    "lift-mul",
    "lift-scale",
    "lift-base",
    "lift-map-compose",
    "lift-dual-derivative",
    "gamma-agrees-with-lift",
    "gamma-morphism",
    "tangent-leibniz",
    "tangent-extension",
    "thm20-eval-p1",
    "thm20-eval-p2",
    "da-naturality",
    "da-linearity",
    "da-squared-zero",
    "palais-route",
    "wedge-graded-commutativity",
    "wedge-leibniz",
)

ONE_DIM_CHARTS = ("box:[-1,1]^1", "circle")


def _algebra(text):
    return build_algebra(parse_presentation(text))


def test_report_order_is_pinned():
    assert SUITES["all"] == ALL_IDENTITIES
    assert SUITES["lie"] + SUITES["lift"] + SUITES["forms"] == ALL_IDENTITIES
    assert tuple(IDENTITIES) == ALL_IDENTITIES


@pytest.mark.parametrize("chart_text", ONE_DIM_CHARTS)
@pytest.mark.parametrize("presentation", ["R", "R[x]/(x^2)"])
def test_all_suite_passes_on_one_dim_charts(presentation, chart_text):
    report = run_suite("all", _algebra(presentation), Chart.parse(chart_text), seed=0, samples=10)
    assert [r.check for r in report.records] == list(ALL_IDENTITIES)
    failed = [(r.check, r.max_residual) for r in report.records if not r.passed]
    assert not failed


@pytest.mark.parametrize("chart_text", ONE_DIM_CHARTS)
@pytest.mark.parametrize(
    "name", ["thm20-eval-p2", "da-squared-zero", "wedge-graded-commutativity", "wedge-leibniz"]
)
def test_identities_needing_two_dims_are_vacuous_on_one_dim(name, chart_text):
    record = check_identity(name, _algebra("R[x]/(x^2)"), Chart.parse(chart_text), samples=5)
    assert record.max_residual == 0.0 and record.passed


def test_dual_derivative_is_vacuous_off_dual_numbers():
    record = check_identity("lift-dual-derivative", _algebra("R[x]/(x^3)"), Chart.cube(2), samples=5)
    assert record.max_residual == 0.0 and record.passed


def test_circle_model_reports_the_chart_it_ran_on():
    report = run_cohomology_model("circle", _algebra("R[x]/(x^2)"), Chart.cube(2), samples=3)
    assert report.config["chart"] == "circle"
    assert [r.chart for r in report.records] == ["circle"] * len(report.records)


@pytest.mark.parametrize("name", ["lift-add", "jacobi"])
def test_points_and_fields_identities_build_no_single_near_point(monkeypatch, name):
    # the drawn block is evaluated as it is; only forms probes need a per-point view of it
    built = []
    init = NearPoint.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NearPoint, "__init__", counted)
    assert IDENTITIES[name].kind in ("points", "fields")
    record = check_identity(name, _algebra("R[x,y]/(x^3,x^2*y,x*y^2,y^3)"), Chart.cube(2), samples=12)
    assert record.passed and built == []


def test_repeated_suite_runs_do_not_grow_memory():
    # memos live on expression nodes and near points, so a finished run leaves nothing behind
    algebra, chart = build_algebra(parse_presentation("R[x]/(x^3)")), Chart.cube(2)
    run_suite("all", algebra, chart, samples=2)  # warm-up: per-algebra caches, lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            run_suite("all", algebra, chart, samples=2)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 100_000, f"{growth} bytes still live after two more runs"


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name",
    ["lift-add", "lift-mul", "lift-scale", "lift-map-compose", "gamma-morphism", "gamma-agrees-with-lift",
     "prop17-bracket", "palais-route"],
)
@pytest.mark.parametrize("presentation", ["R[x]/(x^2)", "R[x,y]/(x^3,x^2*y,x*y^2,y^3)"])
def test_non_finite_near_point_fails_the_record(monkeypatch, presentation, name, bad):
    # both sides are computed at the near point in A, so a non-finite coefficient reaches the residual
    drawn = sp.random_near_points

    def corrupted(rng, algebra, chart, k):
        values = drawn(rng, algebra, chart, k).values.copy()
        values[:, -1, :] = bad  # the last coefficient of every coordinate of every point
        return NearPoints(algebra, chart, values)

    monkeypatch.setattr(sp, "random_near_points", corrupted)
    record = check_identity(name, _algebra(presentation), Chart.cube(2), samples=3)
    assert not record.passed
