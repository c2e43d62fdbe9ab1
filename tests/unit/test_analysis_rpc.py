"""RPC contract rules (REP2xx) against the fixtures and the real repo
registration idioms."""

from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, run_analysis

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "lint_fixtures"
CONFIG = AnalysisConfig(exclude=(), sim_paths=("lint_fixtures",))

CASES = [
    ("REP201", 1),
    ("REP202", 1),
    ("REP203", 1),
    ("REP204", 1),
    ("REP205", 2),
]


def _lint(path: Path, rule: str):
    return run_analysis([str(path)], CONFIG, select=(rule,))


@pytest.mark.parametrize("rule,expected", CASES)
def test_bad_fixture_fires(rule, expected):
    findings = _lint(FIXTURES / f"{rule.lower()}_bad.py", rule)
    assert len(findings) == expected
    assert all(f.rule == rule for f in findings)


@pytest.mark.parametrize("rule,_expected", CASES)
def test_good_fixture_silent(rule, _expected):
    assert _lint(FIXTURES / f"{rule.lower()}_good.py", rule) == []


def test_rep203_kernel_helpers_not_in_handler_registries(tmp_path):
    """Closures a factory passes to a call that is no handler
    registration stay out of the handler/batch registries: REP202's
    arity model and REP203's capture contract do not see them."""
    (tmp_path / "mod.py").write_text(
        "def make(ops, cache, stats, tile):\n"
        "    def pw(A, B):\n"
        "        return ops.pairwise(cache, stats, tile, A, B)\n"
        "    def rw(a, b):\n"
        "        return ops.rowwise(stats, a, b)\n"
        "    def otm(q, X):\n"
        "        return ops.one_to_many(cache, stats, q, X)\n"
        "    return make_bundle('m', ops=ops, cache=cache,\n"
        "                       stats=stats, pairwise=pw,\n"
        "                       rowwise=rw, one_to_many=otm)\n")
    findings = run_analysis([str(tmp_path)], CONFIG,
                            select=("REP202", "REP203"))
    assert findings == []


def test_rep204_is_a_warning_not_an_error():
    findings = _lint(FIXTURES / "rep204_bad.py", "REP204")
    assert findings and all(f.severity == "warning" for f in findings)


def test_rep202_reports_supplied_vs_accepted():
    (finding,) = _lint(FIXTURES / "rep202_bad.py", "REP202")
    assert "2 positional argument(s)" in finding.message
    assert "_h_update(3)" in finding.message


def test_registrations_resolve_across_files(tmp_path):
    """A handler registered in one module, defined in another, called
    from a third: the project-wide index connects all three."""
    (tmp_path / "impl.py").write_text(
        "def _h_store(ctx, key, value):\n"
        "    ctx.state[key] = value\n")
    (tmp_path / "wiring.py").write_text(
        "from impl import _h_store\n\n"
        "def setup(world):\n"
        "    world.register_handlers(store=_h_store)\n")
    (tmp_path / "driver.py").write_text(
        "def send(ctx):\n"
        "    ctx.async_call(0, 'store', 'a', 1)\n"       # fits: clean
        "    ctx.async_call(0, 'store', 'a')\n")         # REP202
    findings = run_analysis([str(tmp_path)], CONFIG,
                            select=("REP201", "REP202"))
    assert [f.rule for f in findings] == ["REP202"]
    assert findings[0].line == 3


def test_visitor_implicit_arity(tmp_path):
    """Visitors receive (ctx, state, key) before the payload."""
    (tmp_path / "mod.py").write_text(
        "def _v_bump(ctx, state, key, amount):\n"
        "    state[key] = state.get(key, 0) + amount\n\n"
        "def setup(dmap):\n"
        "    dmap.register_visitor('bump', _v_bump)\n\n"
        "def drive(dmap):\n"
        "    dmap.async_visit(0, 'k', 'bump', 5)\n"       # fits: clean
        "    dmap.async_visit(0, 'k', 'bump', 5, 6)\n")   # REP202
    findings = run_analysis([str(tmp_path)], CONFIG,
                            select=("REP201", "REP202"))
    assert [f.rule for f in findings] == ["REP202"]
    assert "visitor 'bump'" in findings[0].message


def test_starred_payload_not_flagged(tmp_path):
    """*args at the call site makes the payload count unknowable."""
    (tmp_path / "mod.py").write_text(
        "def _h_any(ctx, a, b):\n"
        "    pass\n\n"
        "def setup(world):\n"
        "    world.register_handler('any', _h_any)\n\n"
        "def drive(ctx, args):\n"
        "    ctx.async_call(0, 'any', *args)\n")
    findings = run_analysis([str(tmp_path)], CONFIG, select=("REP202",))
    assert findings == []


def test_dynamic_handler_name_not_flagged(tmp_path):
    """A variable handler name cannot be resolved statically — no REP201."""
    (tmp_path / "mod.py").write_text(
        "def drive(ctx, handler):\n"
        "    ctx.async_call(0, handler, 1, 2)\n")
    findings = run_analysis([str(tmp_path)], CONFIG, select=("REP201",))
    assert findings == []


# -- the columnar send API: emit_run(src, dests, "h", (col, ...), ...) ---------


def test_columnar_emissions_name_checked():
    """``emit_run`` and the rank program's ``stage`` are send sites too: a
    typo'd name is REP201 wherever it is spelled, including one arm of a
    conditional name."""
    findings = _lint(FIXTURES / "rep201_columnar_bad.py", "REP201")
    assert sorted(f.message.split("'")[1] for f in findings) == [
        "check_unopt", "marge", "merged"]
    assert "register_batch_handler" in findings[0].message


def test_columnar_emissions_arity_checked():
    """A columnar handler takes (world, dest, *columns): a run supplies
    two arguments more than its column tuple holds."""
    short, long_ = _lint(FIXTURES / "rep202_columnar_bad.py", "REP202")
    assert "(2 implicit + 2 payload)" in short.message
    assert "(2 implicit + 4 payload)" in long_.message
    assert "_h_merge(5)" in short.message


def test_columnar_handler_closure_capture_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def setup(world):\n"
        "    seen = []\n"
        "    def _h_run(world, dest, keys):\n"
        "        seen.append(keys)\n"
        "    world.register_batch_handler('run', _h_run)\n")
    (finding,) = run_analysis([str(tmp_path)], CONFIG, select=("REP203",))
    assert "'run'" in finding.message and "seen" in finding.message


def test_emit_run_counts_as_emission_for_stats_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def measure(world, dests, keys):\n"
        "    world.emit_run(0, dests, 'touch', (keys,), 8)\n"
        "    return world.stats\n")
    (finding,) = run_analysis([str(tmp_path)], CONFIG, select=("REP204",))
    assert finding.line == 3


def test_unserializable_column_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def send(world, dests, keys):\n"
        "    world.emit_run(0, dests, 'touch', (keys, (k for k in keys)), 8)\n")
    (finding,) = run_analysis([str(tmp_path)], CONFIG, select=("REP205",))
    assert "generator" in finding.message


def test_every_dnnd_emission_is_a_checked_call_site():
    """The rank program's emissions all spell their handler and their
    columns, so REP201/REP202 see each of the ten message types."""
    from repro.analysis.engine import (build_project, collect_files,
                                       parse_modules)

    src = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
    modules, _ = parse_modules(collect_files(
        [str(src / "dnnd_phases.py")], AnalysisConfig()))
    project = build_project(modules)
    sites = {s.name: s.payload_args for s in project.call_sites}
    assert sites == {
        "init_req": 2, "init_resp": 3, "rev_new": 2, "rev_old": 2,
        "check_opt": 2, "check_unopt": 2, "feature_opt": 3,
        "feature_unopt": 2, "distance_reply": 3, "opt_rev_edge": 3}
    assert set(project.batch_handlers) == set(sites)
    assert not project.handlers
