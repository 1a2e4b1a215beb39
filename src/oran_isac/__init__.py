"""Desk-scale O-RAN ISAC stack.

Fronthaul sensing metadata, a synthetic monostatic OFDM radio, the DU sensing
pipeline, an E2 sensing service model with pub-sub subscriptions, near-RT/A1
control, and the latency experiment harness.
"""

__version__ = "0.1.0"
