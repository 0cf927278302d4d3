"""Record the probe references the output checks compare against.

Writes data/probe_tokenizer.txt (BPE trained on the default seed's
word-order inputs) and data/reference.json (PLL scores and training
losses of the probes).  Run it only when the program's results are meant
to change, and say so in the change that commits the new files:

    python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import quantal.bpe as bpe  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    _, _, tok, _ = workloads.word_order_inputs(workloads.DEFAULT_SEED, workloads.WO_POOL_PAIRS)
    bpe.save_tokenizer(tok, workloads.PROBE_TOKENIZER)
    reference = {
        "pll_scores": workloads.probe_pll_scores(),
        **workloads.probe_training(),
    }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
