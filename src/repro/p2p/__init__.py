"""A Bitcoin-Core-like unstructured P2P overlay (the paper's motivation).

Sections 1.1 and 5 argue that the PDGR model abstracts how Bitcoin Core
full nodes maintain their overlay: a target out-degree (8), a maximum
in-degree (125), an address manager seeded by DNS and refreshed by ``addr``
gossip, and re-dialling whenever the out-degree drops below target.  This
package implements that mechanism concretely so EXP-14 can check that the
engineered overlay behaves like the idealised PDGR model (no isolated
nodes, O(log n) flooding).
"""

from repro.p2p.network import BitcoinLikeNetwork

__all__ = ["BitcoinLikeNetwork"]
