"""The repository benchmark: fixed seeded workloads through the public API.

Run ``PYTHONPATH=src python -m bench run`` (or ``python3 -m bench run``
from the checkout root); see ``bench/README.md``.
"""
