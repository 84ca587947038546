"""HTTP substrate: messages, in-memory network, DNS, logs, faults.

Import the submodules directly; this package re-exports nothing, so
importing one of them loads only what it needs.  The substrate has two
interchangeable transports:

* the in-memory :class:`~repro.net.transport.Network`, used for
  population-scale sweeps, and
* :class:`~repro.net.realserver.RealHttpServer` /
  :func:`~repro.net.realserver.fetch_real`, which expose the same
  handlers over genuine localhost TCP for integration tests,
  ``repro serve`` and ``repro serve-metrics``.  Only those load the
  stdlib's HTTP server and client.

Server-side, each host's access log (:mod:`~repro.net.accesslog`)
records every request once; its appends feed the ``sim.requests``
series and the wide-event log store (:mod:`~repro.net.logstore`).
:mod:`~repro.net.chaos` injects transport faults.
"""
