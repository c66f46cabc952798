"""tinysound: a tiny-transformer toolkit for environmental sound classification.

Submodules
----------
audio_io   WAV decode/encode, resampling, manifests, slicing
dsp        STFT/iSTFT, mel spectrograms, MFCCs, reshaping, normalization
augment    eleven waveform augmentations and the pipeline applicator
tokenizer  curve quantization, vocabulary building, tokenization
model      the tiny BERT-style encoder, accounting, checkpoints
train      loss, exact gradients, Adam with warmup, the epoch loop
deploy     dynamic int8 quantization, quantized inference, benchmarks
cli        batch command-line front end
"""

from . import audio_io, augment, deploy, dsp, model, tokenizer, train
from .audio_io import AudioClip, DatasetManifest, load_manifest, read_wav, resample
from .dsp import SpectrogramConfig, mel_spectrogram, mfcc
from .model import ModelConfig, ModelParams, count_params, forward, init_model
from .train import PipelineConfig, TrainConfig, train_loop, evaluate
from .deploy import quantize_dynamic, qforward, bench

__version__ = "0.1.0"
