"""Independent reference computations the benchmark checks the program against.

Nothing here calls into ``gnnpeft``: the forward pass is a dense, per-graph
numpy rewrite of the model's eval-mode definition, read straight from the
registry's arrays; the AUC counts pairs; the trainable-parameter counts are
closed forms of the architecture.

Model definition restated (eval mode, dropout is the identity):
  x_0      = N_0[a_0] + N_1[a_1]                      (node attribute tables)
  MP(x)    = (A + I) x + C_0 E_0 + C_1 E_1            (A: adjacency, C_k: per
             node counts of incoming edge codes in slot k, the self-loop
             carrying the reserved code V_k; E_k: edge tables)
  h_l      = BN(ReLU(MP(x_l) W_0 + b_0) W_1 + b_1)    (BN with running stats)
  adaptergnn adds s_1 A_1(x_l) + s_2 A_2(MP(x_l)),
             A(z) = BN(ReLU(z W_down + b_down) W_up + b_up)
  x_{l+1}  = ReLU(h_l) between layers; the last h feeds mean pooling
  logits   = mean_nodes(x_L) W_c + b_c
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5  # the model's BatchNorm epsilon


def _bn(h, arrays, prefix):
    inv_std = 1.0 / np.sqrt(arrays[f"{prefix}.running_var"] + BN_EPS)
    return (arrays[f"{prefix}.gamma"] * (h - arrays[f"{prefix}.running_mean"])
            * inv_std + arrays[f"{prefix}.beta"])


def _adapter(z, arrays, prefix):
    h = np.maximum(z @ arrays[f"{prefix}.down.weight"]
                   + arrays[f"{prefix}.down.bias"], 0.0)
    h = h @ arrays[f"{prefix}.up.weight"] + arrays[f"{prefix}.up.bias"]
    return _bn(h, arrays, f"{prefix}.bn")


def _message_operator(node_count, edges, edge_attrs, edge_vocab):
    """(A + I) and the per-slot incoming edge-code counts C_k."""
    a = np.eye(node_count)
    counts = [np.zeros((node_count, size + 1)) for size in edge_vocab]
    for (u, v), codes in zip(edges, edge_attrs):
        a[u, v] += 1.0
        a[v, u] += 1.0
        for k, code in enumerate(codes):
            counts[k][u, code] += 1.0
            counts[k][v, code] += 1.0
    for k, size in enumerate(edge_vocab):
        counts[k][:, size] += 1.0  # self-loop code
    return a, counts


def graph_logits(graph, arrays, num_layers, edge_vocab, mode):
    """Eval-mode logits (T,) of one graph; ``arrays`` maps registry names
    (parameters and buffers) to numpy arrays."""
    attrs = graph.node_attrs
    x = (arrays["encoder.node_emb.0.weight"][attrs[:, 0]]
         + arrays["encoder.node_emb.1.weight"][attrs[:, 1]])
    a, counts = _message_operator(graph.num_nodes, graph.edges,
                                  graph.edge_attrs, edge_vocab)
    edge_term = sum(c @ arrays[f"encoder.edge_emb.{k}.weight"]
                    for k, c in enumerate(counts))
    for l in range(num_layers):
        m = a @ x + edge_term
        h = np.maximum(m @ arrays[f"layer.{l}.mlp.0.weight"]
                       + arrays[f"layer.{l}.mlp.0.bias"], 0.0)
        h = h @ arrays[f"layer.{l}.mlp.1.weight"] + arrays[f"layer.{l}.mlp.1.bias"]
        h = _bn(h, arrays, f"layer.{l}.bn")
        if mode == "adaptergnn":
            h = (h + arrays[f"layer.{l}.scale1"] * _adapter(x, arrays, f"layer.{l}.adapter1")
                 + arrays[f"layer.{l}.scale2"] * _adapter(m, arrays, f"layer.{l}.adapter2"))
        x = np.maximum(h, 0.0) if l < num_layers - 1 else h
    return x.mean(axis=0) @ arrays["classifier.weight"] + arrays["classifier.bias"]


def dataset_logits(graphs, arrays, num_layers, edge_vocab, mode):
    return np.stack([graph_logits(g, arrays, num_layers, edge_vocab, mode)
                     for g in graphs])


def pair_count_auc(scores, labels):
    """Mean over tasks with both classes of (#pos>neg + ½#ties) / #pairs.

    ``labels`` is (G, T) in {0, 1, -1}; -1 entries are left out.
    """
    per_task = []
    for t in range(scores.shape[1]):
        pos = scores[labels[:, t] == 1, t]
        neg = scores[labels[:, t] == 0, t]
        if pos.size == 0 or neg.size == 0:
            continue
        wins = int((pos[:, None] > neg[None, :]).sum())
        ties = int((pos[:, None] == neg[None, :]).sum())
        per_task.append((wins + 0.5 * ties) / (pos.size * neg.size))
    if not per_task:
        raise ValueError("no task has both classes")
    return float(np.mean(per_task))


def trainable_count(mode, d, num_layers, node_vocab, edge_vocab, num_tasks,
                    bottleneck=15):
    """Closed-form trainable parameters for ``full`` and ``adaptergnn``
    (MLP hidden width 2d; adaptergnn tunes adapters, scalings, backbone
    MLP biases and the classifier)."""
    h = 2 * d
    classifier = d * num_tasks + num_tasks
    if mode == "full":
        tables = (sum(node_vocab) + sum(v + 1 for v in edge_vocab)) * d
        layer = d * h + h + h * d + d + 2 * d
        return tables + num_layers * layer + classifier
    if mode == "adaptergnn":
        adapter = d * bottleneck + bottleneck + bottleneck * d + d + 2 * d
        layer = 2 * adapter + 2 + h + d
        return num_layers * layer + classifier
    raise ValueError(f"no closed form for mode {mode!r}")


def adaptergnn_trainable(name):
    """Whether the adaptergnn recipe tunes the registry entry ``name``."""
    return (name.startswith("classifier.") or ".adapter" in name
            or ".scale" in name
            or (".mlp." in name and name.endswith(".bias")))
