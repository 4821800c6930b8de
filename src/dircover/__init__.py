"""Exact direction-cover spectra of planar point sets, point-line duality,
and certified families of lines with prescribed vertical stab counts."""

__version__ = "0.1.0"
