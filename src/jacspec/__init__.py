"""Spectral analysis of perturbed oscillator Jacobi matrices.

Certified index-addressed eigenvalues, closed-form basis-change
matrices with independent cross-check routes, successive
diagonalization data, and asymptotic residual analysis, plus a batch
CLI (``jacspec``) with CSV/JSON output.
"""

__all__ = ["ModelParams", "Tridiagonal"]
__version__ = "0.1.0"


def __getattr__(name):
    # loaded on first use, so that importing jacspec.cli does not load
    # numpy before the CLI has applied JS_THREADS
    if name in __all__:
        from . import model

        return getattr(model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
