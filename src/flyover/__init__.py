"""Hop-level inter-domain bandwidth reservations.

A source AS reserves bandwidth per on-path AS (from ingress to egress
interface) instead of per path, composes those hop reservations into
end-to-end protected channels, and authenticates every packet with cheap
symmetric crypto. The package bundles the cryptographic core, the wire
codec, border-router admission and policing, the source-side reservation
service, a deterministic adversarial network simulator, and topology
experiments on scale-free graphs.
"""

__version__ = "0.1.0"
