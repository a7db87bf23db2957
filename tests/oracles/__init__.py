"""Test oracles: the readable engines the kernels are held bit-identical to,
and the references other tests measure kept code against.

They are not part of the library.  The differential tests and the
kernel benchmarks (``benchmarks/fm_kernel.py``, ``benchmarks/coarsening.py``,
run with ``PYTHONPATH=src:.``) import them from here.
"""
