"""The perf ledger: the one benchmark by which changes to ``repro`` are
judged.  Run ``PYTHONPATH=src python -m bench``; see ``bench/README.md``."""
