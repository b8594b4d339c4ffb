"""JMake reproduction: dependable compilation for kernel janitors.

Reproduction of Lawall & Muller, *JMake: Dependable Compilation for
Kernel Janitors* (DSN 2017), with every substrate implemented in pure
Python. See README.md for a tour and DESIGN.md for the inventory.

The most common entry points:

>>> from repro import CheckSession, generate_tree
>>> tree = generate_tree()
>>> session = CheckSession.from_generated_tree(tree)

and, for the evaluation pipeline:

>>> from repro import CorpusSpec, EvaluationSession, build_corpus
>>> corpus = build_corpus(CorpusSpec(eval_commits=100))
>>> result = EvaluationSession(corpus).run()
"""

from repro.core.jmake import CheckSession, JMakeOptions
from repro.core.report import FileReport, FileStatus, PatchReport
from repro.evalsuite.runner import EvaluationResult, EvaluationSession
from repro.kernel.generator import GeneratedTree, generate_tree
from repro.kernel.layout import HazardKind, TreeSpec, default_tree_spec
from repro.workload.corpus import Corpus, CorpusSpec, build_corpus

__version__ = "1.0.0"

__all__ = [
    "CheckSession",
    "Corpus",
    "CorpusSpec",
    "EvaluationResult",
    "EvaluationSession",
    "FileReport",
    "FileStatus",
    "GeneratedTree",
    "HazardKind",
    "JMakeOptions",
    "PatchReport",
    "TreeSpec",
    "__version__",
    "build_corpus",
    "default_tree_spec",
    "generate_tree",
]
