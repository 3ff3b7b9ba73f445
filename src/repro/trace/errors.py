"""Typed trace-format errors.

Every malformed-input error raised by the trace readers
(:mod:`repro.trace.pcaplib`, :mod:`repro.trace.textform`,
:mod:`repro.trace.binaryform`) derives from :class:`TraceFormatError`,
which carries *where* the input broke — the record index within the
stream and/or the byte offset — so a multi-gigabyte trace conversion
that dies half-way points at the bad record instead of just saying
"malformed".  Readers accept ``skip_malformed=True`` to drop bad
records and keep going; the dropped errors can be collected through
the ``skipped`` list parameter so tools can summarize what was lost.
"""

from __future__ import annotations

import functools


class TraceFormatError(ValueError):
    """Malformed trace input, with its location when known.

    ``index`` is the zero-based record (or packet) index in the input
    stream; ``offset`` is the byte offset of the record's start.
    Either may be ``None`` when the failing helper has no stream
    context (e.g. decoding a single control-channel frame)."""

    def __init__(self, message: str, *, index: int | None = None,
                 offset: int | None = None):
        where = []
        if index is not None:
            where.append(f"record {index}")
        if offset is not None:
            where.append(f"byte offset {offset}")
        super().__init__(f"{message} ({', '.join(where)})" if where
                         else message)
        self.message = message
        self.index = index
        self.offset = offset

    def __reduce__(self):
        # The location is keyword-only, which default exception
        # pickling drops; keep class and location across a process pool.
        return (functools.partial(type(self), index=self.index,
                                  offset=self.offset), (self.message,))


def note_skipped(skipped: list | None, error: TraceFormatError) -> None:
    """Collect *error* for the caller's skip summary, if asked to."""
    if skipped is not None:
        skipped.append(error)
