"""The paper's measurement pipelines (Sections 2-6).

Import the submodules directly; this package re-exports nothing, so
importing one of them loads only what it needs.
"""
