"""Pass manager: run term passes to fixpoint over a bounded script."""

from repro.errors import SolverError
from repro.slot.passes import PASS_REGISTRY, AssertionCleanup
from repro.smtlib.script import Script
from repro.smtlib.terms import map_terms

#: Fixpoint cap: each iteration runs every pass once.
FIXPOINT_ITERATIONS = 4


class PassManager:
    """Runs a pipeline of term passes plus assertion cleanup.

    Args:
        passes: pass classes (defaults to :data:`PASS_REGISTRY`).
    """

    def __init__(self, passes=None):
        self.passes = [cls() for cls in (passes or PASS_REGISTRY)]
        self.statistics = {cls.name: 0 for cls in (passes or PASS_REGISTRY)}

    def run_on_assertions(self, assertions):
        """Optimize a list of boolean terms; returns the new list."""
        current = list(assertions)
        for _ in range(FIXPOINT_ITERATIONS):
            changed = False
            for pass_instance in self.passes:
                def rewrite(term, new_args, _pass=pass_instance):
                    return _pass.rewrite(term, new_args)

                rewritten = map_terms(current, rewrite)
                for before, after in zip(current, rewritten):
                    if before is not after:
                        changed = True
                        self.statistics[pass_instance.name] += 1
                current = rewritten
            cleaned, _ = AssertionCleanup().run(current)
            if cleaned != current:
                changed = True
            current = cleaned
            if not changed:
                break
        return current

    def run(self, script):
        """Optimize a bounded script; returns a new :class:`Script`."""
        if not script.is_bounded:
            raise SolverError(
                "SLOT-style optimization only applies to bounded constraints "
                "(run STAUB first; this is the point of RQ2)"
            )
        optimized = Script(logic=script.logic)
        # Preserve original declarations: optimization can erase variables
        # from assertions, but models must still assign them.
        optimized.declarations.update(script.declarations)
        for assertion in self.run_on_assertions(script.assertions):
            optimized.add_assertion(assertion)
        return optimized


def optimize_script(script, passes=None):
    """One-shot convenience wrapper; returns (optimized, statistics)."""
    manager = PassManager(passes)
    optimized = manager.run(script)
    return optimized, dict(manager.statistics)
