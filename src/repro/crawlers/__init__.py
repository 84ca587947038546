"""Crawlers: engine, behavior profiles, the Table 1 fleet, assistants,
and the Common-Crawl-style snapshotter.

Import the submodules directly; this package re-exports nothing, so
importing one of them loads only what it needs.
"""
