"""Reporting: ASCII tables, text figures, experiment runners.

Import the submodules directly; this package re-exports nothing, so
importing one of them loads only what it needs.  The Section 3 runners
(:mod:`repro.report.longitudinal`) are apart from the rest
(:mod:`repro.report.experiments`), so a strata run never loads the
survey, the audits or the testbed.
"""
