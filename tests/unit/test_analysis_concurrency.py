"""Thread-safety rules (REP4xx) against the fixtures and inline snippets."""

from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, run_analysis

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "lint_fixtures"
# The fixtures declare their own two-lock hierarchy (the repo's lists
# the one lock it has).
CONFIG = AnalysisConfig(exclude=(), sim_paths=("lint_fixtures",),
                        lock_order=("_fault_lock", "_lock"))

ALL_RULES = ("REP401", "REP402", "REP403", "REP404", "REP405")


def _lint(path, rule, config=CONFIG):
    return run_analysis([str(path)], config, select=(rule,))


@pytest.mark.parametrize("rule", ALL_RULES)
def test_bad_fixture_fires(rule):
    findings = _lint(FIXTURES / f"{rule.lower()}_bad.py", rule)
    assert len(findings) == 3
    assert all(f.rule == rule for f in findings)
    assert all(f.severity == "error" for f in findings)


@pytest.mark.parametrize("rule", ALL_RULES)
def test_good_fixture_silent(rule):
    assert _lint(FIXTURES / f"{rule.lower()}_good.py", rule) == []


def test_rep401_message_names_the_fold():
    (first, *_) = _lint(FIXTURES / "rep401_bad.py", "REP401")
    assert "absolute" in first.message
    assert "barrier" in first.message


def test_rep402_message_points_at_the_mutation_line():
    findings = _lint(FIXTURES / "rep402_bad.py", "REP402")
    assert "not atomic" in findings[0].message
    assert "setdefault" in findings[0].message


def test_rep403_message_suggests_argument_binding():
    findings = _lint(FIXTURES / "rep403_bad.py", "REP403")
    reasons = {f.message.split("(")[1].split(" in the")[0] for f in findings}
    assert reasons == {"loop variable", "reassigned", "augmented"}
    assert all("argument" in f.message for f in findings)


def test_rep404_names_the_declared_hierarchy():
    findings = _lint(FIXTURES / "rep404_bad.py", "REP404")
    assert any("_fault_lock -> _lock" in f.message for f in findings)
    assert any("re-acquired" in f.message for f in findings)


def test_rep405_task_and_handler_scope_both_flagged():
    findings = _lint(FIXTURES / "rep405_bad.py", "REP405")
    kinds = {f.message.split(" from ")[1].split(" scope")[0] for f in findings}
    assert kinds == {"handler", "task"}


def test_suppression_silences_rep401(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "PENDING = []\n\n\n"
        "def _h(ctx, x):\n"
        "    PENDING.append(x)  # repro: ignore[REP401]\n\n\n"
        "def setup(world):\n"
        "    world.register_handler('h', _h)\n")
    assert _lint(f, "REP401") == []


def test_alias_of_shared_state_is_tracked(tmp_path):
    """``table = TABLE`` makes the local an alias of shared state."""
    f = tmp_path / "mod.py"
    f.write_text(
        "TABLE = {}\n\n\n"
        "def _h(ctx, k, v):\n"
        "    table = TABLE\n"
        "    table.update({k: v})\n\n\n"
        "def setup(world):\n"
        "    world.register_handler('h', _h)\n")
    findings = _lint(f, "REP401")
    assert [x.rule for x in findings] == ["REP401"]
    assert "table" in findings[0].message


def test_lock_context_exempts_mutation(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "import threading\n"
        "TABLE = {}\n"
        "_LOCK = threading.Lock()\n\n\n"
        "def _h(ctx, k):\n"
        "    with _LOCK:\n"
        "        TABLE.pop(k, None)\n\n\n"
        "def setup(world):\n"
        "    world.register_handler('h', _h)\n")
    assert _lint(f, "REP401") == []


def test_class_state_counts_as_shared(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "class Worker:\n"
        "    seen = 0\n\n"
        "    @classmethod\n"
        "    def _h(cls, ctx, x):\n"
        "        cls.seen += 1\n\n"
        "    def setup(self, world):\n"
        "        world.register_handler('h', self._h)\n\n\n"
        "def wire(world, worker):\n"
        "    world.register_handler('h2', worker._h)\n")
    # Attribute registrations resolve by name to the method def.
    findings = _lint(f, "REP401")
    assert len(findings) == 1
    assert "cls.seen" in findings[0].message


def test_map_ranks_argument_is_concurrent_scope(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "DEPTHS = []\n\n\n"
        "def _bump(rank):\n"
        "    DEPTHS.append(rank)\n\n\n"
        "def run(executor, ranks):\n"
        "    executor.map_ranks(_bump, ranks)\n")
    findings = _lint(f, "REP401")
    assert [x.rule for x in findings] == ["REP401"]
    assert "task scope" in findings[0].message


def test_thread_target_is_concurrent_scope(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "import threading\n"
        "EVENTS = []\n\n\n"
        "def _pump():\n"
        "    EVENTS.append(1)\n\n\n"
        "def run():\n"
        "    threading.Thread(target=_pump).start()\n")
    assert [x.rule for x in _lint(f, "REP401")] == ["REP401"]


def test_process_target_is_not_concurrent_scope(tmp_path):
    """A ``Process`` target runs in its own address space — module
    state it mutates is the worker's private copy, so the REP4xx
    thread rules must stay silent (process-worker scope, not thread
    scope)."""
    f = tmp_path / "mod.py"
    f.write_text(
        "import multiprocessing\n"
        "FRAMES = []\n\n\n"
        "def _worker_main(w):\n"
        "    FRAMES.append(w)\n\n\n"
        "def spawn(ctx):\n"
        "    ctx.Process(target=_worker_main, args=(0,)).start()\n")
    assert _lint(f, "REP401") == []


def test_process_target_metrics_publication_allowed(tmp_path):
    """Worker-local metrics shadows are not the driver's registry;
    REP405 applies to thread scope only."""
    f = tmp_path / "mod.py"
    f.write_text(
        "import multiprocessing\n\n\n"
        "def _worker_main(metrics):\n"
        "    metrics.set_counter('x', 1)\n\n\n"
        "def spawn():\n"
        "    multiprocessing.Process(target=_worker_main).start()\n")
    assert _lint(f, "REP405") == []


def test_thread_and_process_target_still_checked(tmp_path):
    """Registration under ``Thread`` keeps a dual-use function in
    concurrent scope even when it is also a process target."""
    f = tmp_path / "mod.py"
    f.write_text(
        "import multiprocessing\n"
        "import threading\n"
        "EVENTS = []\n\n\n"
        "def _pump():\n"
        "    EVENTS.append(1)\n\n\n"
        "def run():\n"
        "    multiprocessing.Process(target=_pump).start()\n"
        "    threading.Thread(target=_pump).start()\n")
    assert [x.rule for x in _lint(f, "REP401")] == ["REP401"]


def test_unregistered_function_is_driver_scope(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "PENDING = []\n\n\n"
        "def driver_only(x):\n"
        "    PENDING.append(x)\n")
    assert _lint(f, "REP401") == []


def test_rep402_not_in_unary_form(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text(
        "SLOTS = {}\n\n\n"
        "def _h(ctx, k):\n"
        "    if not (k in SLOTS):\n"
        "        SLOTS[k] = 0\n\n\n"
        "def setup(world):\n"
        "    world.register_handler('h', _h)\n")
    assert [x.rule for x in _lint(f, "REP402")] == ["REP402"]


def test_rep404_lock_order_config_override(tmp_path):
    """A custom ``lock-order`` hierarchy drives the inversion check."""
    f = tmp_path / "mod.py"
    f.write_text(
        "class S:\n"
        "    def f(self):\n"
        "        with self.b_lock:\n"
        "            with self.a_lock:\n"
        "                return 1\n")
    default = _lint(f, "REP404")
    assert default == []  # a_lock/b_lock are not in the default hierarchy
    custom = AnalysisConfig(exclude=(), sim_paths=("lint_fixtures",),
                            lock_order=("a_lock", "b_lock"))
    findings = _lint(f, "REP404", config=custom)
    assert [x.rule for x in findings] == ["REP404"]
    assert "a_lock" in findings[0].message


def test_rep404_applies_outside_concurrent_scope(tmp_path):
    """Lock ordering is a whole-program property: driver code included."""
    f = tmp_path / "mod.py"
    f.write_text(
        "def driver(transport):\n"
        "    with transport._lock:\n"
        "        with transport._fault_lock:\n"
        "            return transport.pending\n")
    assert [x.rule for x in _lint(f, "REP404")] == ["REP404"]
