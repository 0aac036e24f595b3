"""The rebuild-or-patch rule and cross-tick sweep-batch reuse."""

from repro.engine.evaluator import (
    _PATCH_FRACTION,
    IndexedEvaluator,
    NaiveEvaluator,
    collect_call_hints,
)
from repro.env.schema import battle_schema
from repro.env.table import TableDelta, diff_by_key
from repro.sgl.analysis import analyze_script
from repro.sgl.evalterm import EvalContext
from repro.sgl.parser import parse_script
from tests.conftest import make_env


def make_ctx(env, registry, agg_eval, unit):
    return EvalContext(
        env=env,
        registry=registry,
        agg_eval=agg_eval,
        rng=lambda row, i: 0,
        bindings={"u": unit},
        unit=unit,
    )


def inserts(count, base_size):
    delta = TableDelta(base_size=base_size)
    delta.inserted = [{"key": i} for i in range(count)]
    return delta


class TestPatchOrRebuildRule:
    """``maintenance="auto"``: patch while at most ``_PATCH_FRACTION`` of
    the rows changed, rebuild above it -- decided from the delta alone."""

    def retaining(self, registry, maintenance):
        evaluator = IndexedEvaluator(registry, maintenance=maintenance)
        evaluator._env = object()
        evaluator._div_index["x"] = object()  # pretend something is retained
        return evaluator

    def test_auto_patches_up_to_the_fraction_and_rebuilds_above(
        self, registry
    ):
        evaluator = self.retaining(registry, "auto")
        at = int(_PATCH_FRACTION * 1000)
        assert evaluator._should_apply(inserts(0, 1000))
        assert evaluator._should_apply(inserts(at, 1000))
        assert not evaluator._should_apply(inserts(at + 1, 1000))
        assert not evaluator._should_apply(inserts(1000, 1000))

    def test_forced_modes_ignore_the_fraction(self, registry):
        assert self.retaining(registry, "incremental")._should_apply(
            inserts(1000, 1000)
        )
        assert not self.retaining(registry, "rebuild")._should_apply(
            inserts(1, 1000)
        )

    def test_delta_budget_is_the_largest_delta_auto_patches(self, registry):
        evaluator = self.retaining(registry, "auto")
        budget = evaluator.delta_budget(400)
        assert budget == int(_PATCH_FRACTION * 400)
        assert evaluator._should_apply(inserts(budget, 400))
        assert not evaluator._should_apply(inserts(budget + 1, 400))


SWEEP_SCRIPT = """
main(u) {
  (let w = WeakestWoundedFriendlyInRange(u, u.sight)) {
    perform UseWeapon(u)
  }
}
"""


class TestSweepBatchReuse:
    """A Figure-9 batch survives a tick when the delta touched neither
    its source partition nor its probe group."""

    FN = "WeakestWoundedFriendlyInRange"

    def setup_probe(self, registry, schema):
        env = make_env(schema, n=30, grid=30, seed=9)
        for row in env.rows[:6]:
            row["health"] -= 3  # wounded: the sweep's source partition
        script = parse_script(SWEEP_SCRIPT)
        analysis = analyze_script(script, registry, schema)
        (hint,) = collect_call_hints(analysis, {"main": "u"})
        probes = [r for r in env.rows if r["health"] == r["max_health"]][:4]
        return env, hint, probes

    def probe_all(self, evaluator, env, registry, probe_keys):
        fn = registry.aggregates[self.FN]
        out = []
        for unit in env.rows:
            if unit["key"] not in probe_keys:
                continue
            ctx = make_ctx(env, registry, evaluator, unit)
            out.append(evaluator.evaluate(fn, [unit, unit["sight"]], ctx))
        return out

    def test_batch_reused_when_sources_and_probes_untouched(
        self, registry, schema
    ):
        env, hint, probes = self.setup_probe(registry, schema)
        probe_keys = {p["key"] for p in probes}
        evaluator = IndexedEvaluator(registry, maintenance="incremental")
        evaluator.begin_tick(env, [(hint, probes)])
        self.probe_all(evaluator, env, registry, probe_keys)
        assert evaluator.stats.get("build_sweep") == 1

        # a healthy bystander's cooldown ticks: no source, no probe
        new = env.copy()
        bystander = next(
            r
            for r in new.rows
            if r["health"] == r["max_health"] and r["key"] not in probe_keys
        )
        bystander["cooldown"] += 1
        delta = diff_by_key(env, new)
        new_probes = [r for r in new.rows if r["key"] in probe_keys]
        evaluator.begin_tick(new, [(hint, new_probes)], delta=delta)
        assert evaluator.stats.get("sweep_reuse") == 1

        got = self.probe_all(evaluator, new, registry, probe_keys)
        naive = NaiveEvaluator()
        want = self.probe_all(naive, new, registry, probe_keys)
        assert got == want
        assert evaluator.stats.get("build_sweep") == 1  # never rebuilt

    def test_source_change_invalidates(self, registry, schema):
        env, hint, probes = self.setup_probe(registry, schema)
        probe_keys = {p["key"] for p in probes}
        evaluator = IndexedEvaluator(registry, maintenance="incremental")
        evaluator.begin_tick(env, [(hint, probes)])
        self.probe_all(evaluator, env, registry, probe_keys)

        new = env.copy()
        wounded = next(
            r for r in new.rows if r["health"] < r["max_health"]
        )
        wounded["health"] -= 1
        delta = diff_by_key(env, new)
        new_probes = [r for r in new.rows if r["key"] in probe_keys]
        evaluator.begin_tick(new, [(hint, new_probes)], delta=delta)
        assert evaluator.stats.get("sweep_reuse", 0) == 0

        got = self.probe_all(evaluator, new, registry, probe_keys)
        want = self.probe_all(NaiveEvaluator(), new, registry, probe_keys)
        assert got == want
        assert evaluator.stats.get("build_sweep") == 2

    def test_probe_change_invalidates(self, registry, schema):
        env, hint, probes = self.setup_probe(registry, schema)
        probe_keys = {p["key"] for p in probes}
        evaluator = IndexedEvaluator(registry, maintenance="incremental")
        evaluator.begin_tick(env, [(hint, probes)])
        self.probe_all(evaluator, env, registry, probe_keys)

        # a probing unit moves: its hinted arguments change
        new = env.copy()
        prober = next(r for r in new.rows if r["key"] in probe_keys)
        prober["posx"] = (prober["posx"] + 3) % 30
        delta = diff_by_key(env, new)
        new_probes = [r for r in new.rows if r["key"] in probe_keys]
        evaluator.begin_tick(new, [(hint, new_probes)], delta=delta)
        assert evaluator.stats.get("sweep_reuse", 0) == 0

        got = self.probe_all(evaluator, new, registry, probe_keys)
        want = self.probe_all(NaiveEvaluator(), new, registry, probe_keys)
        assert got == want

    def test_probe_group_shrink_invalidates(self, registry, schema):
        env, hint, probes = self.setup_probe(registry, schema)
        probe_keys = {p["key"] for p in probes}
        evaluator = IndexedEvaluator(registry, maintenance="incremental")
        evaluator.begin_tick(env, [(hint, probes)])
        self.probe_all(evaluator, env, registry, probe_keys)

        # same env, but one probe left the hinted group
        delta = diff_by_key(env, env.copy())
        kept = [r for r in env.rows if r["key"] in probe_keys][:-1]
        evaluator.begin_tick(env, [(hint, kept)], delta=delta)
        assert evaluator.stats.get("sweep_reuse", 0) == 0

    def test_empty_delta_retains_filterless_batches(self, registry, schema):
        """A quiet tick (zero changed rows) must retain every batch,
        including those of filterless aggregates where any *actual*
        change would dirty the sources."""
        env, _, probes = self.setup_probe(registry, schema)
        probe_keys = {p["key"] for p in probes}
        script = parse_script(
            "main(u) { (let w = WeakestEnemyInRange(u, u.sight)) "
            "{ perform UseWeapon(u) } }"
        )
        analysis = analyze_script(script, registry, schema)
        (hint,) = collect_call_hints(analysis, {"main": "u"})
        fn = registry.aggregates["WeakestEnemyInRange"]
        evaluator = IndexedEvaluator(registry, maintenance="incremental")
        evaluator.begin_tick(env, [(hint, probes)])
        for unit in probes:
            ctx = make_ctx(env, registry, evaluator, unit)
            evaluator.evaluate(fn, [unit, unit["sight"]], ctx)
        assert evaluator.stats.get("build_sweep") == 1

        quiet = diff_by_key(env, env.copy())
        assert quiet is not None and quiet.changed == 0
        new_probes = [r for r in env.rows if r["key"] in probe_keys]
        evaluator.begin_tick(env, [(hint, new_probes)], delta=quiet)
        assert evaluator.stats.get("sweep_reuse") == 1
        for unit in new_probes:
            ctx = make_ctx(env, registry, evaluator, unit)
            got = evaluator.evaluate(fn, [unit, unit["sight"]], ctx)
            want = NaiveEvaluator().evaluate(fn, [unit, unit["sight"]], ctx)
            assert got == want
        assert evaluator.stats.get("build_sweep") == 1

    def test_rebuild_mode_never_reuses(self, registry, schema):
        env, hint, probes = self.setup_probe(registry, schema)
        probe_keys = {p["key"] for p in probes}
        evaluator = IndexedEvaluator(registry, maintenance="rebuild")
        evaluator.begin_tick(env, [(hint, probes)])
        self.probe_all(evaluator, env, registry, probe_keys)
        delta = diff_by_key(env, env.copy())
        evaluator.begin_tick(
            env, [(hint, list(probes))], delta=delta
        )
        assert evaluator.stats.get("sweep_reuse", 0) == 0
