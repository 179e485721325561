"""Zero-shot classification over precomputed features.

A semantic embedding branch fuses per-class vectors from several
modalities into the visual feature space; unseen-class samples are
classified by nearest embedded prototype under a configurable distance
metric. Includes a synthetic multi-modal dataset generator and an
ablation harness.
"""
