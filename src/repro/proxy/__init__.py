"""Active blocking: rules, interstitials, fingerprinting, reverse proxies.

Import the submodules directly; this package re-exports nothing, so
importing one of them loads only what it needs.
"""
