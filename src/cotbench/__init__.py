"""cotbench: supervised vs unsupervised chain-of-thought evaluation harness.

Generates formal-language task instances with exact oracles, renders the
four prompt variants per task, queries a completion backend, extracts and
scores the concluding answers, and aggregates accuracy grids.
"""

# Not a facade: callers import names from the modules themselves.  Importing
# the modules here keeps ``import cotbench`` loading them, so ``cotbench.runner``
# and the other modules resolve after it alone.
from cotbench import backends, complexity, extraction, prompts, rundir, runner, tasks  # noqa: F401

__version__ = "0.1.0"
