"""tinysound: a tiny-transformer toolkit for environmental sound classification.

Submodules (the package re-exports none of their names)
--------------------------------------------------------
audio_io   WAV decode/encode, resampling, manifests, slicing
dsp        STFT/iSTFT, mel spectrograms, MFCCs, reshaping, normalization
augment    eleven waveform augmentations and the pipeline applicator
tokenizer  curve quantization, vocabulary building, tokenization
model      the tiny BERT-style encoder, accounting, checkpoints
train      loss, exact gradients, Adam with warmup, the epoch loop
deploy     dynamic int8 quantization, quantized inference
cli        batch command-line front end, imported on its own
"""

from . import audio_io, augment, deploy, dsp, model, tokenizer, train

__version__ = "0.1.0"
