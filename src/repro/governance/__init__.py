"""Data governance across administrative domains and trust levels.

Implements the ML4 goal of Table 2's data vector: "Unconstrained data
flows. Governance among administrative domains & trust levels", and
Fig. 4's privacy scopes: jurisdictions (GDPR/CCPA-style), per-domain trust,
per-component in/out flow policies, and a policy engine that the sync
layer consults before any datum crosses a boundary.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AdministrativeDomain": "domains",
    "DomainRegistry": "domains",
    "Jurisdiction": "domains",
    "TrustLevel": "domains",
    "FlowDecision": "policy",
    "FlowPolicy": "policy",
    "PolicyEngine": "policy",
    "PrivacyScope": "policy",
    "DomainTransferProtocol": "transfer",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
