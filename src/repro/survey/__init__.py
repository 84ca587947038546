"""The artist user study: instrument, respondents, coding, analysis.

Import the submodules directly; this package re-exports nothing, so
importing one of them loads only what it needs.
"""
