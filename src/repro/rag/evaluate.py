"""RAG pipeline evaluation under TEE envelopes (Fig. 14).

Runs the three retrieval models on a synthetic BEIR-like corpus and
prices each query's work — Elasticsearch-style index scans, SBERT
encodes, cross-encoder passes — through the same execution engine the
LLM experiments use, so TDX's mechanisms (memory encryption, nested
walks, virtualization tax) apply to the whole pipeline, database
included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..engine.placement import Deployment
from ..engine.roofline import WorkingSets, cost_model_for
from ..llm.config import CROSS_ENCODER, SBERT_BASE
from ..llm.datatypes import BFLOAT16
from ..llm.ops import Operator, OpCategory, Phase
from .bm25 import Bm25Retriever, RankedDoc
from .corpus import Corpus, generate_corpus
from .dense import DenseRetriever
from .inverted_index import POSTING_ENTRY_BYTES, InvertedIndex
from .metrics import mean_metric, ndcg_at_k
from .rerank import RerankedBm25Retriever

#: Retrieval model names evaluated in Fig. 14.
RAG_METHODS = ("bm25", "bm25-reranked", "sbert")


def _scan_operator(index: InvertedIndex, query: str) -> Operator:
    cost = index.scan_cost(query.split())
    return Operator(
        name="es_index_scan", category=OpCategory.ELEMENTWISE,
        phase=Phase.PREFILL, layer=None,
        flops=cost.score_ops,
        activation_bytes=cost.bytes_touched,
    )


def _cosine_operator(num_docs: int, dim: int) -> Operator:
    return Operator(
        name="dense_search", category=OpCategory.GEMM,
        phase=Phase.PREFILL, layer=None,
        flops=2.0 * num_docs * dim,
        activation_bytes=float(num_docs * dim * 4 + dim * 4),
    )


#: Resident set of the Elasticsearch JVM serving the index: heap, segment
#: caches and page cache churn dwarf the raw postings for realistic
#: deployments, keeping index scans DRAM-visible inside the TEE.
ES_HEAP_RESIDENT_BYTES = 4 * 1024**3


def _index_working_sets(index: InvertedIndex) -> WorkingSets:
    # Raw postings plus the JVM resident set (whichever dominates).
    postings_bytes = (index.num_documents * index.average_doc_length
                      * POSTING_ENTRY_BYTES)
    resident = max(postings_bytes, ES_HEAP_RESIDENT_BYTES)
    return WorkingSets(weights=0.0, kv=0.0, activations=resident)


@dataclass(frozen=True)
class QueryTiming:
    """Per-query time breakdown of one retrieval pipeline."""

    method: str
    retrieval_s: float
    encode_s: float

    @property
    def total_s(self) -> float:
        return self.retrieval_s + self.encode_s


def time_query(method: str, index: InvertedIndex, query: str,
               deployment: Deployment, dense_docs: int = 0,
               rerank_candidates: int = 50, seed: int = 0) -> QueryTiming:
    """Price one query of a retrieval pipeline on a deployment.

    Args:
        method: One of :data:`RAG_METHODS`.
        dense_docs: Corpus size for the dense cosine search.
        rerank_candidates: Cross-encoder passes for the rerank stage.

    Raises:
        ValueError: For unknown methods.
    """
    if method not in RAG_METHODS:
        raise ValueError(f"unknown method {method!r}; known: {RAG_METHODS}")
    model = cost_model_for(deployment)
    sets = _index_working_sets(index)
    doc_tokens = max(8, int(index.average_doc_length))
    query_tokens = max(4, len(query.split()))

    if method == "bm25":
        step = model.step_cost([_scan_operator(index, query)], sets, BFLOAT16)
        return QueryTiming(method=method, retrieval_s=step.total_s,
                           encode_s=0.0)
    if method == "bm25-reranked":
        step = model.step_cost([_scan_operator(index, query)], sets, BFLOAT16)
        encode = _encode_time(
            CROSS_ENCODER, rerank_candidates,
            min(query_tokens + doc_tokens, 512), model)
        return QueryTiming(method=method, retrieval_s=step.total_s,
                           encode_s=encode)
    # sbert: encode the query, then a cosine scan over the doc matrix.
    encode = _encode_time(SBERT_BASE, 1, min(query_tokens, 512), model)
    dim = SBERT_BASE.hidden_size
    step = model.step_cost([_cosine_operator(dense_docs, dim)], sets, BFLOAT16)
    return QueryTiming(method=method, retrieval_s=step.total_s,
                       encode_s=encode)


def _encode_time(config, batch: int, input_tokens: int, model) -> float:
    """Price one encoder pass with the Elasticsearch JVM polluting the
    LLC: the co-located database keeps evicting the small encoder's
    weights, so they stream from (TEE-encrypted) DRAM every pass.  The
    pass is costed from the encoder's one-block twin, repeated over its
    blocks."""
    from ..llm.graph import encode_ops
    ops = encode_ops(replace(config, num_layers=1), BFLOAT16, batch,
                     input_tokens)
    weights = config.num_parameters * BFLOAT16.bytes + ES_HEAP_RESIDENT_BYTES
    sets = WorkingSets(weights=weights, kv=0.0,
                       activations=ES_HEAP_RESIDENT_BYTES)
    step = model.step_cost(ops, sets, BFLOAT16)
    return replace(step, num_layers=config.num_layers).total_s


@dataclass(frozen=True)
class RagEvaluation:
    """Quality and cost of one retrieval pipeline on one deployment."""

    method: str
    mean_query_time_s: float
    mean_ndcg_at_10: float
    queries: int


def build_retrievers(corpus: Corpus) -> dict[str, object]:
    """Construct the three retrieval pipelines over a corpus."""
    index = InvertedIndex()
    index.index_all(corpus.documents)
    dense = DenseRetriever()
    dense.index_all(corpus.documents)
    return {
        "bm25": Bm25Retriever(index),
        "bm25-reranked": RerankedBm25Retriever(index),
        "sbert": dense,
        "_index": index,
    }


def evaluate_pipeline(corpus: Corpus, method: str, deployment: Deployment,
                      k: int = 10, seed: int = 0,
                      retrievers: dict[str, object] | None = None,
                      ) -> RagEvaluation:
    """Run a pipeline over every corpus query: real rankings for quality,
    engine-priced time for cost."""
    retrievers = retrievers or build_retrievers(corpus)
    index: InvertedIndex = retrievers["_index"]  # type: ignore[assignment]
    retriever = retrievers[method]
    times = []
    ndcgs = []
    for offset, (query_id, query) in enumerate(sorted(corpus.queries.items())):
        ranking: list[RankedDoc] = retriever.retrieve(query, k=k)  # type: ignore[attr-defined]
        ndcgs.append(ndcg_at_k(ranking, corpus.qrels[query_id], k=k))
        timing = time_query(method, index, query, deployment,
                            dense_docs=corpus.num_documents,
                            seed=seed + offset)
        times.append(timing.total_s)
    return RagEvaluation(
        method=method,
        mean_query_time_s=mean_metric(times),
        mean_ndcg_at_10=mean_metric(ndcgs),
        queries=len(times),
    )


def rag_tdx_overheads(num_docs: int = 1000, num_queries: int = 30,
                      seed: int = 0) -> dict[str, float]:
    """Fig. 14: mean-evaluation-time overhead of TDX per retrieval model."""
    from ..core.experiment import cpu_deployment
    corpus = generate_corpus(num_docs=num_docs, num_queries=num_queries,
                             seed=seed)
    retrievers = build_retrievers(corpus)
    baseline = cpu_deployment("baremetal", sockets_used=1)
    tdx = cpu_deployment("tdx", sockets_used=1)
    overheads = {}
    for method in RAG_METHODS:
        base = evaluate_pipeline(corpus, method, baseline, seed=seed,
                                 retrievers=retrievers)
        secure = evaluate_pipeline(corpus, method, tdx, seed=seed + 1000,
                                   retrievers=retrievers)
        overheads[method] = (secure.mean_query_time_s
                             / base.mean_query_time_s - 1.0)
    return overheads
