"""Band-sparse quadratic enhancement of linear layers, desk-scale toolkit."""

__version__ = "0.1.0"
