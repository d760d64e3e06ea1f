"""Experiment harness: table builders (E1..E16), sweeps, ASCII renderers.

This package re-exports nothing, so importing one of its modules loads
only what that module needs: import the renderers from
:mod:`repro.analysis.render`, the tables from :mod:`repro.analysis.tables`
and the sweeps from :mod:`repro.analysis.sweeps`.
"""
