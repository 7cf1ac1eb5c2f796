"""Spans written by lptbench (<out>.spans) and their self time.

File layout (little-endian): b"LPTSPAN1", u64 count, u64 dropped, u32 names,
then per name a u16 length and its bytes, then `count` records of
(i64 start_ns, i64 end_ns, u32 parent id, u16 name index, u16 pad). A span's
id is its record index + 1; parent 0 means none. A record whose start is 0
was reserved but never finished (its process died first) and is skipped.
"""

import collections
import struct

_RECORD = struct.Struct("<qqIHH")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent")

    def __init__(self, id_, name, start, end, parent):
        self.id = id_
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def duration(self):
        return self.end - self.start


def read(path):
    """(spans, dropped) from a span file."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"LPTSPAN1":
        raise ValueError("%s: not a span file" % path)
    count, dropped, n_names = struct.unpack_from("<QQI", data, 8)
    off = 28
    names = []
    for _ in range(n_names):
        (length,) = struct.unpack_from("<H", data, off)
        names.append(data[off + 2:off + 2 + length].decode())
        off += 2 + length
    spans = []
    for i, (start, end, parent, name, _) in enumerate(
            _RECORD.iter_unpack(data[off:off + count * _RECORD.size])):
        if start:
            spans.append(Span(i + 1, names[name], start, end, parent))
    return spans, dropped


def self_times(spans):
    """{span id: self time}: a span's duration minus the part of its
    interval that the union of its children's intervals covers. Children
    may run concurrently with each other (spawned ULTs), so overlaps count
    once, and a child reaching outside its parent counts only inside."""
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def by_name(spans):
    """{name: {"count", "durations" (sorted), "self" (sorted)}}."""
    selfs = self_times(spans)
    groups = collections.defaultdict(lambda: ([], []))
    for s in spans:
        d, st = groups[s.name]
        d.append(s.duration)
        st.append(selfs[s.id])
    return {name: {"count": len(d), "durations": sorted(d), "self": sorted(st)}
            for name, (d, st) in groups.items()}
