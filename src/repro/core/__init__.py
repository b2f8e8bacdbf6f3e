"""ISS core: Sequenced Broadcast multiplexing into a total order (the paper's contribution)."""

from .config import (
    ISSConfig,
    NetworkConfig,
    WorkloadConfig,
    ConfigError,
    paper_config,
    PROTOCOL_PBFT,
    PROTOCOL_HOTSTUFF,
    PROTOCOL_RAFT,
    POLICY_SIMPLE,
    POLICY_BACKOFF,
    POLICY_BLACKLIST,
)
from .types import (
    Request,
    RequestId,
    Batch,
    NIL,
    is_nil,
    DeliveredRequest,
    SegmentDescriptor,
    CheckpointCertificate,
)
from .buckets import BucketPool, BucketQueue, bucket_of, buckets_for_leader, assignment_for_epoch
from .segment import (
    build_segments,
    epoch_seq_nrs,
    epoch_of,
    segment_seq_nrs,
    LAYOUT_ROUND_ROBIN,
    LAYOUT_CONTIGUOUS,
)
from .log import Log
from .leader_policy import (
    SimplePolicy,
    BackoffPolicy,
    BlacklistPolicy,
    FailureHistory,
    make_policy,
)
from .sb import SBContext, SBInstance
from .manager import EpochManager
from .orderer import Orderer, default_factory
from .iss import ISSNode
from .client import Client
from .validation import RequestValidator, ClientWatermarks, sign_request

__all__ = [
    "ISSConfig",
    "NetworkConfig",
    "WorkloadConfig",
    "ConfigError",
    "paper_config",
    "PROTOCOL_PBFT",
    "PROTOCOL_HOTSTUFF",
    "PROTOCOL_RAFT",
    "POLICY_SIMPLE",
    "POLICY_BACKOFF",
    "POLICY_BLACKLIST",
    "Request",
    "RequestId",
    "Batch",
    "NIL",
    "is_nil",
    "DeliveredRequest",
    "SegmentDescriptor",
    "CheckpointCertificate",
    "BucketPool",
    "BucketQueue",
    "bucket_of",
    "buckets_for_leader",
    "assignment_for_epoch",
    "build_segments",
    "epoch_seq_nrs",
    "epoch_of",
    "segment_seq_nrs",
    "LAYOUT_ROUND_ROBIN",
    "LAYOUT_CONTIGUOUS",
    "Log",
    "SimplePolicy",
    "BackoffPolicy",
    "BlacklistPolicy",
    "FailureHistory",
    "make_policy",
    "SBContext",
    "SBInstance",
    "EpochManager",
    "Orderer",
    "default_factory",
    "ISSNode",
    "Client",
    "RequestValidator",
    "ClientWatermarks",
    "sign_request",
]
