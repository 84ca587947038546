"""The synthetic web: domains, rankings, sites, providers, evolution.

Import the submodules directly; this package re-exports nothing, so
importing one of them loads only what it needs.
"""
