"""Names of the 90 cortical/subcortical regions of the AAL atlas.

Indices follow the atlas convention: 1-based, odd = left hemisphere,
even = right. These are the default feature names of 90-feature datasets
built by `data.dataset_from_arrays`; the ROI ranking reports whatever
feature names a dataset carries.
"""

_PAIRS = [
    "Precentral gyrus",
    "Superior frontal gyrus, dorsolateral",
    "Superior frontal gyrus, orbital part",
    "Middle frontal gyrus",
    "Middle frontal gyrus, orbital part",
    "Inferior frontal gyrus, opercular part",
    "Inferior frontal gyrus, triangular part",
    "Inferior frontal gyrus, orbital part",
    "Rolandic operculum",
    "Supplementary motor area",
    "Olfactory cortex",
    "Superior frontal gyrus, medial",
    "Superior frontal gyrus, medial orbital",
    "Gyrus rectus",
    "Insula",
    "Anterior cingulate gyrus",
    "Median cingulate gyrus",
    "Posterior cingulate gyrus",
    "Hippocampus",
    "Parahippocampal gyrus",
    "Amygdala",
    "Calcarine fissure",
    "Cuneus",
    "Lingual gyrus",
    "Superior occipital gyrus",
    "Middle occipital gyrus",
    "Inferior occipital gyrus",
    "Fusiform gyrus",
    "Postcentral gyrus",
    "Superior parietal gyrus",
    "Inferior parietal lobule",
    "Supramarginal gyrus",
    "Angular gyrus",
    "Precuneus",
    "Paracentral lobule",
    "Caudate nucleus",
    "Lenticular nucleus, putamen",
    "Lenticular nucleus, pallidum",
    "Thalamus",
    "Heschl gyrus",
    "Superior temporal gyrus",
    "Temporal pole, superior",
    "Middle temporal gyrus",
    "Temporal pole, middle",
    "Inferior temporal gyrus",
]

AAL90 = [f"{base} {side}" for base in _PAIRS for side in ("left", "right")]
