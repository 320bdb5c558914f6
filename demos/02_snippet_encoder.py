"""How one snippet becomes one vector.

A snippet arrives as three raw streams: a global environment vector, a
matrix of per-agent features, and a frame embedding used to retrieve
nearby vocabulary tokens. This walkthrough builds a tiny hand-made
vocabulary table, retrieves scene elements for a frame, shows the hard
selection step choosing which rows survive, and fuses the three stream
summaries into the final snippet vector. The encoder runs a whole event's
snippets at once, one row per snippet, so the walkthrough encodes two
snippets: the one it inspects and one with nobody in it.

Run: python3 demos/02_snippet_encoder.py
"""

import numpy as np

from paracap.encoder import (SnippetEncoder, SnippetInput,
                             VocabEmbeddingTable, select_scene_elements)
from paracap.tensor import Tensor


def banner(text):
    print(f"\n=== {text} ===")


def main():
    rng = np.random.default_rng(7)
    d_frame = 4

    banner("a hand-made vocabulary table")
    tokens = ["dog", "cat", "park", "pond", "tree", "ball"]
    # Feature rows are nearly axis-aligned, so retrieval is readable.
    features = np.eye(len(tokens), d_frame)
    features += rng.normal(0.0, 0.05, size=features.shape)
    table = VocabEmbeddingTable(tokens=tokens, text_features=features,
                                w_text=np.eye(d_frame),
                                w_image=np.eye(d_frame))
    for tok, row in zip(tokens, features):
        print(f"  {tok:<5} {np.array_str(row, precision=2)}")

    banner("retrieval: which tokens does this frame evoke?")
    # A frame that looks mostly like "dog", with a hint of "park".
    frame = 0.9 * features[0] + 0.4 * features[2]
    _, picked = select_scene_elements(frame[None], table, k=3)
    q = frame @ table.w_image
    keys = features @ table.w_text
    sims = keys @ q / (np.linalg.norm(q) * np.linalg.norm(keys, axis=1))
    print("frame =", np.array_str(frame, precision=2))
    for j in np.argsort(-sims):
        marker = "<-- kept" if j in picked[0] else ""
        print(f"  cosine({tokens[j]:<5}) = {sims[j]:+.3f} {marker}")

    banner("the full snippet, stream by stream")
    snippet = SnippetInput(env=rng.normal(size=5),
                           agents=rng.normal(size=(3, 6)),
                           frame=frame)
    empty = SnippetInput(env=rng.normal(size=5), agents=np.zeros((0, 6)),
                         frame=features[3])
    snippets = [snippet, empty]
    enc = SnippetEncoder(rng, d_env=5, d_agent=6, d_element=d_frame,
                         d_emb=8)
    # A fresh init sits deliberately close to zero; nudge the weights to
    # a generic point so the stream summaries are readable.
    for p in enc.params().values():
        p.values = p.values + rng.normal(0.0, 0.4, size=p.values.shape)
    f_env = enc.env_mlp(Tensor(np.stack([s.env for s in snippets])))
    print("environment summary      ",
          np.array_str(f_env.values[0], precision=2))

    projected = enc.agent_mlp(Tensor(snippet.agents))
    shifted = projected.values + f_env.values[0][None, :]
    norms = np.linalg.norm(shifted, axis=1)
    norms -= norms.max()
    scores = np.exp(norms) / np.exp(norms).sum()
    print("agent salience scores    ",
          np.array_str(scores, precision=3),
          f"(uniform level {1 / len(scores):.3f})")
    kept = np.flatnonzero(scores > 1.0 / len(scores))
    print(f"agents surviving the cut: {[int(i) for i in kept]} "
          "(scores above the uniform level)")
    f_agent = enc.encode_agents([s.agents for s in snippets], f_env)
    print("agent summary            ",
          np.array_str(f_agent.values[0], precision=2))
    print("empty snippet's summary  ",
          np.array_str(f_agent.values[1], precision=2))

    rows, _ = select_scene_elements(np.stack([s.frame for s in snippets]), table, k=3)
    f_elem = enc.encode_elements(rows, f_env)
    print("scene-element summary    ",
          np.array_str(f_elem.values[0], precision=2))

    banner("fusing the three summaries")
    fused = enc.encode_event(snippets, table, k=3)
    print("snippet vector           ",
          np.array_str(fused.values[0], precision=2))
    print("\nOrder of the streams cannot matter: the mix is a")
    print("self-attention over the stacked summaries followed by a mean,")
    print("which treats the stack as a set. (The acceptance suite checks")
    print("all six orderings agree to 1e-9.)")


if __name__ == "__main__":
    main()
