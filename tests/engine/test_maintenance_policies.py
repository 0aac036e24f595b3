"""The rebuild-or-patch rule, and sweeps that never outlive their tick."""

from repro.engine.evaluator import _PATCH_FRACTION, IndexedEvaluator, NaiveEvaluator
from repro.env.table import TableDelta, diff_by_key
from repro.sgl.evalterm import EvalContext
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
    """Patch while at most ``_PATCH_FRACTION`` of the rows changed,
    rebuild above it -- decided from the delta alone."""

    def retaining(self, registry):
        evaluator = IndexedEvaluator(registry)
        evaluator._env = object()
        evaluator._div_index["x"] = object()  # pretend something is retained
        return evaluator

    def test_auto_patches_up_to_the_fraction_and_rebuilds_above(
        self, registry
    ):
        evaluator = self.retaining(registry)
        at = int(_PATCH_FRACTION * 1000)
        assert evaluator._should_apply(inserts(0, 1000))
        assert evaluator._should_apply(inserts(at, 1000))
        assert not evaluator._should_apply(inserts(at + 1, 1000))
        assert not evaluator._should_apply(inserts(1000, 1000))

    def test_delta_budget_is_the_largest_delta_auto_patches(self, registry):
        evaluator = self.retaining(registry)
        budget = evaluator.delta_budget(400)
        assert budget == int(_PATCH_FRACTION * 400)
        assert evaluator._should_apply(inserts(budget, 400))
        assert not evaluator._should_apply(inserts(budget + 1, 400))


class TestSweepBatchReuse:
    """Figure-9 sweeps are never carried across ticks: every tick's
    call-site batch sweeps that tick's sources, so a delta touching the
    source partition or the probing units always shows in the answers,
    whether the retained indexes were patched or rebuilt."""

    FN = "WeakestWoundedFriendlyInRange"

    def setup_probe(self, schema):
        env = make_env(schema, n=30, grid=30, seed=9)
        for row in env.rows[:6]:
            row["health"] -= 3  # wounded: the sweep's source partition
        probes = [r for r in env.rows if r["health"] == r["max_health"]][:4]
        return env, {p["key"] for p in probes}

    def probe_all(self, evaluator, env, registry, probe_keys):
        """One call-site batch: every probing unit's call."""
        fn = registry.aggregates[self.FN]
        units = [u for u in env.rows if u["key"] in probe_keys]
        return evaluator.evaluate_batch(
            fn,
            [[u, u["sight"]] for u in units],
            [make_ctx(env, registry, evaluator, u) for u in units],
        )

    def check_next_tick(self, registry, env, new, probe_keys):
        """Sweep tick 1 over *env*, tick 2 over *new*: tick 2 must sweep
        again and answer exactly like the naive evaluator."""
        evaluator = IndexedEvaluator(registry)
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry, probe_keys)
        first = evaluator.stats.get("build_sweep")
        assert first
        evaluator.begin_tick(new, delta=diff_by_key(env, new))
        got = self.probe_all(evaluator, new, registry, probe_keys)
        want = self.probe_all(NaiveEvaluator(), new, registry, probe_keys)
        assert got == want
        assert evaluator.stats.get("build_sweep") > first
        assert evaluator.stats.get("sweep_reuse", 0) == 0

    def test_source_change_invalidates(self, registry, schema):
        env, probe_keys = self.setup_probe(schema)
        new = env.copy()
        wounded = next(r for r in new.rows if r["health"] < r["max_health"])
        wounded["health"] -= 1
        self.check_next_tick(registry, env, new, probe_keys)

    def test_probe_change_invalidates(self, registry, schema):
        env, probe_keys = self.setup_probe(schema)
        # a probing unit moves: its call's arguments change
        new = env.copy()
        prober = next(r for r in new.rows if r["key"] in probe_keys)
        prober["posx"] = (prober["posx"] + 3) % 30
        self.check_next_tick(registry, env, new, probe_keys)

    def test_probe_group_shrink_invalidates(self, registry, schema):
        env, probe_keys = self.setup_probe(schema)
        evaluator = IndexedEvaluator(registry)
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry, probe_keys)
        # same env, but one probe left the batch
        kept = set(sorted(probe_keys)[:-1])
        evaluator.begin_tick(env, delta=diff_by_key(env, env.copy()))
        got = self.probe_all(evaluator, env, registry, kept)
        want = self.probe_all(NaiveEvaluator(), env, registry, kept)
        assert got == want and len(got) == len(kept)
