"""Output checks that can be stated — and tested — without a cluster."""

from __future__ import annotations

from typing import Collection, Optional, Sequence, Tuple

#: One acknowledged put to a key: (start, done, value), loadgen clock.
AckedPut = Tuple[float, float, str]


def judge_final_read(
    puts: Sequence[AckedPut], maybe: Collection[str], value: Optional[str]
) -> Optional[str]:
    """Why a key's final read is wrong, or ``None`` when it is allowed.

    Puts to one key may be in flight together, and the log — not the
    client — orders them, so "the last value written" is not defined by
    submission order.  What linearizability does fix: the value read after
    everything finished must come from an acknowledged put that no other
    acknowledged put *definitely* followed (started after it was done).
    ``maybe`` holds the values of puts that timed out: they may or may not
    have been applied, so reading one of them is allowed too.
    """
    if value in maybe:
        return None
    written = [put for put in puts if put[2] == value]
    if not written:
        return "reads back a value no acknowledged put wrote"
    done = written[0][1]
    if any(start > done for start, _done, _value in puts):
        return "reads back a value a later acknowledged put overwrote"
    return None
