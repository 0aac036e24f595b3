"""Safety rule pack.

The engine compiles game scripts and spectator queries -- text that
arrives from mods and from network clients -- so any place that turns
text into running code is an injection surface.  The SGL emitter
(``repro.engine.compile``) is the one sanctioned site: it never splices
script text into the source it compiles.  Every other ``exec``/``eval``/
``compile`` call must say why it is safe, or go.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, LintModule, Rule
from ._util import import_aliases, resolved_call_name

# -- dynamic-code ----------------------------------------------------------

_DYNAMIC = frozenset({"exec", "eval", "compile"})


class DynamicCodeRule(Rule):
    id = "dynamic-code"
    pack = "safety"
    description = (
        "builtin exec()/eval()/compile() turns text into code; only a "
        "justified suppression may keep one"
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolved_call_name(node, aliases)
            if name is None:
                continue
            if name.startswith("builtins."):
                name = name[len("builtins.") :]
            elif "." in name:
                continue  # re.compile(), or a name imported over the builtin
            if name in _DYNAMIC:
                yield self.make(
                    module,
                    node,
                    f"builtin {name}() runs text as code; emit only generated "
                    "text and justify it with a suppression",
                )


SAFETY_RULES: list[Rule] = [DynamicCodeRule()]
