"""Page payloads: what PROGRAM PAGE stores and READ PAGE hands back.

The device is content-agnostic.  A payload is either ``bytes`` or a
:class:`DeferredImage`, and every program path stores it as given: READ
PAGE and COPYBACK return that very object, and the statistics count its
length, which PROGRAM measures once (for an image, from the length it
carries, without calling ``__len__``).  Nothing in the simulator looks inside a page, so an image that
is never read back never needs its bytes.

A :class:`DeferredImage` is how the buffer pool writes a page back: an
immutable snapshot of the page object (the records tuple of a slotted
page, a B+-tree node's state tuple) together with the exact length of its
encoding, and the function that encodes it.  ``bytes(image)`` calls that
function on the snapshot, every time it is called; nothing is cached.
Successive versions of a page share most of their records, so a snapshot
costs a tuple of references where a copy of the bytes would cost the page
size.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, TypeAlias


class DeferredImage:
    """A page image encoded on demand from a frozen snapshot.

    Args:
        encode: builds the image's bytes from ``state``, its one argument.
        state: the snapshot; immutable (bytes, or tuples of immutable
            values), so later changes to the page do not reach the image.
        length: ``len(encode(state))``, known without encoding.
    """

    __slots__ = ("_encode", "_state", "_length")

    def __init__(self, encode: Callable[[Any], bytes], state: Any, length: int) -> None:
        self._encode = encode
        self._state = state
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __bytes__(self) -> bytes:
        return self._encode(self._state)


#: what a flash page holds
Payload: TypeAlias = bytes | DeferredImage
