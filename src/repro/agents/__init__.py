"""AI user-agent registry, catalogs, and UA-string utilities.

Import the submodules directly; this package re-exports nothing, so
importing one of them loads only what it needs.
"""
