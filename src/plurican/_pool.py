"""No code.  Every computation in the package runs in one process, and
``--workers`` is checked by the command line alone (`cli._run`).

The module stays only because ``MODULES`` in `perfbench/tracing.py` imports
it by name; ROADMAP item 6 deletes it.
"""
