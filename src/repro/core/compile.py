"""The residue of the retired plan compiler.

The parsed tree is the plan now (:mod:`repro.core.ast_nodes` carries
the precompute, :mod:`repro.core.interpreter` runs it), so compiling is
the identity.  The perf ledger's ``core.compile.compile_us`` row is the
only caller; ROADMAP item 1(e) deletes this module with that row.
"""

from __future__ import annotations

from .ast_nodes import Script


def compile_script(script: Script) -> Script:
    """Return ``script`` unchanged: there is nothing left to compile."""
    return script
