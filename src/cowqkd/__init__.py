"""Photon-level simulator and rate model for a COW-QKD receiver whose
avalanche detector leaks timing information through backflash emission."""

__version__ = "0.1.0"
