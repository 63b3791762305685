"""Exact-arithmetic Euler forms, Serre transforms, Hochschild pairings and
the kernel-equality verdict over finite-dimensional quiver algebras."""

__version__ = "0.1.0"
