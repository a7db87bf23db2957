"""Test oracles: the readable engines the kernels are held bit-identical to.

They are not part of the library.  The differential tests and the
kernel benchmarks (``benchmarks/fm_kernel.py``, ``benchmarks/coarsening.py``,
run with ``PYTHONPATH=src:.``) import them from here.
"""
