"""Pluggable execution backends for the simulators.

Every simulator in this package runs its numerics through a
:class:`~repro.backends.base.Backend` resolved from the string-keyed
registry::

    from repro.backends import get_backend

    backend = get_backend()            # the optimized default
    reference = get_backend("numpy")   # the tensordot reference

Both advance a single statevector or a ``(B, 2**n)`` block of trajectories;
``"batched"`` is a registry alias of the optimized backend.

New execution substrates (a torch/GPU backend, a multiprocessing shot
dispatcher, ...) plug in through :func:`register_backend` without touching
the engines.
"""

from repro.backends.base import Backend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.optimized import OptimizedNumpyBackend
from repro.backends.registry import (
    DEFAULT_BACKEND_NAME,
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "Backend",
    "NumpyBackend",
    "OptimizedNumpyBackend",
    "DEFAULT_BACKEND_NAME",
    "available_backends",
    "get_backend",
    "register_backend",
]

register_backend("numpy", NumpyBackend, aliases=("reference",))
register_backend(
    "optimized",
    OptimizedNumpyBackend,
    aliases=("optimized_numpy", "batched", "batched_numpy"),
)
