"""The four IRONMAN call kinds."""

from __future__ import annotations

import enum


class CallKind(enum.Enum):
    """One of the four IRONMAN calls demarcating a data transfer.

    The names abbreviate the program state at the call site:

    ``DR``
        *Destination Ready*: from here on the destination buffer (the
        fluff region) may be written by the transfer.
    ``SR``
        *Source Ready*: the source data is in its final state; the
        transfer may read (and ship) it from here on.
    ``DN``
        *Destination Needed*: the destination is about to use the data;
        the transfer must be complete past this point.
    ``SV``
        *Source Volatile*: the source is about to overwrite its buffer;
        the transfer must have finished reading it past this point.
    """

    DR = "destination ready"
    SR = "source ready"
    DN = "destination needed"
    SV = "source volatile"
