"""Exact combinatorics of measured train tracks and their splitting sequences.

Modules cover: arithmetic in the dilatation field (`numberfield`),
ribbon-encoded train tracks with exact measures (`traintrack`), elementary
moves and periodic-sequence detection (`splitting`), curve-length and
generator-count bounds (`bounds`), arc diagrams and arcslide factorizations
(`arcdiagram`), and bordered Heegaard diagram counts (`heegaard`).
"""

__version__ = "0.1.0"
