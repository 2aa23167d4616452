"""Patch-to-tensor regression networks, hand-rolled on numpy."""
