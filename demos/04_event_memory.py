"""What the event memory stores, and which way information flows.

The decoder narrates a video event by event. It freezes a copy of each
event's per-layer hidden states into a memory; later events read those
copies through the same selection-and-attention machinery the encoder
uses. A row at position p reads only position p of the earlier events,
so greedy decoding runs all of a video's events in lockstep. Two
properties make the memory a one-way street:

* Later events never change what was said about earlier ones.
* Gradients from a later event stop at the frozen copies instead of
  flowing back into earlier events' computations.

This script makes both visible on a toy decoder.

Run: python3 demos/04_event_memory.py
"""

import numpy as np

from paracap import tensor as T
from paracap.data import BOS_ID
from paracap.decoder import CaptionDecoder, EventMemory, greedy_decode
from paracap.nn import Embedding
from paracap.tensor import Tensor

D, VOCAB, LAYERS = 8, 9, 2


def banner(text):
    print(f"\n=== {text} ===")


def make_decoder(seed=11):
    rng = np.random.default_rng(seed)
    dec = CaptionDecoder(rng, Embedding(rng, VOCAB, D), D, LAYERS, 2, 1,
                         VOCAB, 32)
    for p in dec.params().values():
        p.values = p.values + rng.normal(0.0, 0.3, size=p.values.shape)
    return dec


def main():
    dec = make_decoder()
    rng = np.random.default_rng(99)
    events = [Tensor(rng.normal(size=(2, D))) for _ in range(3)]

    banner("one lockstep call decodes every event and stores each one")
    memory = EventMemory(LAYERS)
    said, _ = greedy_decode(dec, events, memory, max_len=5)
    for i, tokens in enumerate(said):
        print(f"  event {i}: said tokens {tokens};  stored "
              f"{memory.lengths[i]} rows x {LAYERS} layers")
    print(f"  memory now holds {len(memory)} event(s)")

    banner("earlier events steer later ones")
    rows2 = events[2]

    def tell_third_event(first_tokens):
        memory = EventMemory(LAYERS)
        dec.forward_event(events[0], first_tokens, memory,
                          update_memory=True)
        dec.forward_event(events[1], [BOS_ID, 5, 6], memory,
                          update_memory=True)
        logits, _ = dec.forward_event(rows2, [BOS_ID, 4], memory,
                                      update_memory=False)
        return logits.values

    delta = np.abs(tell_third_event([BOS_ID, 7, 8])
                   - tell_third_event([BOS_ID, 3, 3])).max()
    print(f"  changing event 0's tokens moves event 2's logits by "
          f"{delta:.3f} (memory carries context forward)")

    banner("later events cannot rewrite earlier ones")

    def first_event_logits(third_rows):
        memory = EventMemory(LAYERS)
        logits, _ = dec.forward_event(events[0], [BOS_ID, 7, 8], memory,
                                      update_memory=True)
        dec.forward_event(events[1], [BOS_ID, 5, 6], memory,
                          update_memory=True)
        dec.forward_event(third_rows, [BOS_ID, 4], memory,
                          update_memory=False)
        return logits.values

    delta = np.abs(first_event_logits(events[2])
                   - first_event_logits(Tensor(rng.normal(size=(2, D)))))
    print(f"  replacing event 2 entirely moves event 0's logits by "
          f"{delta.max():.1f} (exactly zero)")

    banner("gradients stop at the frozen copies")
    rows0 = Tensor(rng.normal(size=(2, D)), requires_grad=True)
    memory = EventMemory(LAYERS)
    dec.forward_event(rows0, [BOS_ID, 7, 8], memory, update_memory=True)
    logits, _ = dec.forward_event(events[1], [BOS_ID, 5], memory,
                                  update_memory=False)
    T.backward(T.tsum(logits * logits))
    leak = "none" if rows0.grad is None else f"{np.abs(rows0.grad).max():.1f}"
    print(f"  loss on event 1, gradient reaching event 0's inputs: {leak}")
    print("  (each event trains on its own slice; memory is read-only")
    print("   context, so credit never crosses event boundaries)")


if __name__ == "__main__":
    main()
