"""Pseudo-spectral solver for a penalized liquid-crystal flow on the 2D torus.

A velocity field u and a director field n evolve under Stokes dissipation,
transport, elastic (Ericksen) stress, a Ginzburg-Landau penalty that relaxes
|n| toward 1 at scale epsilon, additive solenoidal noise on u, and a
geometric rotation noise on n about a fixed axis field h.  Every name is
imported from its module, from ``nsgl.grid`` up to ``nsgl.io_cli``;
importing the package loads none of them.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
