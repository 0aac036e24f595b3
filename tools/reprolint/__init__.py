"""reprolint: determinism & concurrency static analysis for this repo.

Every layer of the reproduction rests on one invariant -- bit-identical
trajectories across serial/processes/spectator/replay
configurations -- and the costliest bugs so far (a ``PYTHONHASHSEED``-
dependent ``stable_hash``, an ``id()``-reuse script-cache alias, a
``union`` row alias) were all *statically detectable* nondeterminism
patterns.  reprolint walks the AST of ``src/`` with four rule packs:

* **determinism** -- nondeterministic calls (``random``, ``time.time``,
  ``datetime.now``, ``os.urandom``, builtin ``hash``) in tick-path
  modules, unsorted set / ``dict.keys()`` iteration, unpinned
  ``id()``-keyed caches, dict mutation during iteration;
* **concurrency** -- a per-class thread-ownership map (tick thread vs.
  background threads) flagging attributes mutated from more than one
  ownership domain without the class's registered lock, misordered
  ``close()``/``join()`` teardown, and leak-prone non-daemon threads;
* **wire** -- ``struct`` format strings without an explicit byte order,
  frame-packing modules without a ``*_VERSION`` constant, encoders with
  no decoder counterpart, and ``recv`` paths that ignore the
  ``FrameError`` taxonomy;
* **safety** -- builtin ``exec``/``eval``/``compile`` calls, which turn
  text (game scripts and spectator queries arrive as text) into code.

Findings can be suppressed inline with a *justified*
``# reprolint: disable=<rule> -- why`` comment or grandfathered in the
committed baseline file (``tools/reprolint/baseline.json``).  See
``docs/static-analysis.md`` for the rule catalogue and workflow.
"""

from .engine import Finding, LintModule, Project, lint_paths
from .rules import ALL_RULES

__all__ = ["ALL_RULES", "Finding", "LintModule", "Project", "lint_paths"]

__version__ = "1.0"
