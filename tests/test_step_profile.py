"""tools/step_profile.py on a tiny config: every op of the step is timed."""

from pathlib import Path

from tinysound import model


def test_two_layer_step_times_each_op_forward_and_back(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import step_profile

    step_profile.report(model.ModelConfig(seq_len=6, input_dim=5, layers=2), 2, 3)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("B=2, L=6, F=5, H=16, layers=2:")
    rows = [line.rsplit(None, 3) for line in lines[1:]]  # label, median, [q1, q3]
    ops = ["bn_mapping", "layer_norm emb_ln", "dropout",
           "attention layer0_q=6", "ffn layer0_", "attention layer1_q=1", "ffn layer1_",
           "pooler_classifier"]
    numbered = [f"{k} {op}" for k, op in enumerate(ops)]
    assert [" ".join(label.split()) for label, *_ in rows] == (
        [f"forward {n}" for n in numbered]
        + ["forward total", "loss cross_entropy"]
        + [f"backward {n}" for n in reversed(numbered)]
        + ["backward total", "check _check_finite", "adam adam_step", "step total"])
    for _, median, q1, q3 in rows:
        assert 0.0 <= float(q1.strip("[,")) <= float(median) <= float(q3.strip("]"))
