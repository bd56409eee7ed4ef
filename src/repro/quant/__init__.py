"""Fixed-point quantization and bit-array utilities for MEI."""
