"""Persistent (immutable) data structures used across the system.

The tree machine and the monitor's generic ``upd`` path snapshot the
size-change table into every continuation frame, so the table must
support O(log n) functional update with structural sharing: a HAMT.  (The
compiled machine's fast path keeps its own dict-chunk table; see
:func:`repro.eval.machine._table_put`.)  The object language's ``hash``
values reuse the same trie.
"""

from repro.ds.hamt import Hamt
from repro.ds.plist import PList, pnil

__all__ = ["Hamt", "PList", "pnil"]
