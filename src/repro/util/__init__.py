"""Leaf utilities shared by every layer (stdlib only, no repro imports)."""
