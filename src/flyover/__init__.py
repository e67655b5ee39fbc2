"""Hop-level inter-domain bandwidth reservations.

A source AS reserves bandwidth per on-path AS (from ingress to egress
interface) instead of per path, composes those hop reservations into
end-to-end protected channels, and authenticates every packet with cheap
symmetric crypto. The package bundles the cryptographic core, the wire
codec, border-router admission and policing, the source-side reservation
service, a deterministic adversarial network simulator, and topology
experiments on scale-free graphs.
"""

from .admission import (
    AllocationMatrix,
    BloomFilter,
    DefaultPolicy,
    EstimatorConfig,
    ExactSetFilter,
    Grant,
    RequesterEstimator,
)
from .crypto import (
    AuthFailure,
    compute_authenticator,
    compute_request_auth,
    compute_validation_field,
    derive_drkey,
    seal_grant,
    unseal_grant,
)
from .policing import DedupWindow, TokenBucket, TrafficMonitor, Verdict
from .router import Decision, Router, RouterConfig, TrafficClass
from .source import (
    CompositionPlan,
    FlyoverGrant,
    GrantStore,
    PathHop,
    PathPlan,
    build_reply,
    build_setup_request,
    compose,
    emit_packet,
    ingest_response,
)
from .wire import DataPacket, DecodeError, EncodeError, SetupRequest, SetupResponse

__version__ = "0.1.0"
